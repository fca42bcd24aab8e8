// Package gateway serves SQL to many concurrent tenants over one
// engine/autopilot stack — the multi-client front the paper's
// recommender benchmarks assume but never build. A request flows
//
//	parse → authenticate → authorize → admit → execute → respond
//
// with a structured audit record for every accepted or rejected query.
// Authentication is a static API-key → tenant map; authorization checks
// the tenant's granted query families and relation allowlist and
// enforces read-only SQL; admission is a bounded per-tenant slot count
// (429 + Retry-After when full), then the handler runs the query under
// tenant and global concurrency caps unless its client leaves first.
// Each tenant carries its own goal curve G(x) and a sliding window
// graded by core.DigestOf, so a violating tenant nudges the tuner into a
// recommender run and an incremental engine transition while traffic
// keeps flowing.
//
// All query timing is simulated seconds from the engine's cost meters;
// wall-clock never enters an audit record or goal ledger, which is what
// makes seeded runs reproducible byte for byte at any parallelism.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/recommender"
	"repro/internal/shard"
	"repro/internal/sql"
)

// Backend is the loaded serving substrate: the engine plus the sampled
// per-family query pools clients draw from and the storage budget the
// tuner recommends under.
type Backend struct {
	Engine *engine.Engine
	// Pools maps family name → sampled SQL texts (served by /v1/pool so
	// load generators need no local catalog).
	Pools map[string][]string
	// Budget is the tuner's storage budget in bytes.
	Budget int64
	// Cluster, when non-nil, serves queries partition-parallel over the
	// engine. load builds one from the config when sharding or
	// autoscaling is requested and the provided backend lacks it.
	Cluster *shard.Cluster
}

// Options assembles a Gateway.
type Options struct {
	Config Config
	// Backend, when non-nil, serves immediately (tests share one loaded
	// lab across suites). Otherwise BackendFunc — or the default
	// BuildBackend — loads in the background and /readyz flips only
	// after it returns.
	Backend     *Backend
	BackendFunc func(Config) (*Backend, error)
	// AuditSink, when non-nil, receives every audit record as a JSON
	// line in arrival order.
	AuditSink io.Writer
}

// Gateway is one multi-tenant HTTP front over one engine.
type Gateway struct {
	cfg         Config
	db          string
	tenants     map[string]*tenantState
	byKey       map[string]*tenantState
	tenantOrder []string
	mux         *http.ServeMux
	audit       *auditor

	// gate is the global in-flight cap: a handler holds a slot while its
	// query executes, bounding engine load across all tenants.
	gate     chan struct{}
	accepted atomic.Int64
	rejected atomic.Int64

	backend atomic.Pointer[Backend]
	tunerP  atomic.Pointer[tuner]
	autoP   atomic.Pointer[autoscaler]
	readyCh chan struct{}
	loadMu  sync.Mutex
	loadErr error // conflint:guardedby loadMu

	// acceptMu serializes admission against shutdown: handlers take
	// drain tickets under the read lock, Shutdown flips draining under
	// the write lock, so no accepted query can slip past the drain wait.
	acceptMu sync.RWMutex
	draining bool // conflint:guardedby acceptMu
	drainWG  sync.WaitGroup

	shutdown1 sync.Once
	// shutdownErr is written only inside shutdown1.Do and read after it
	// returns; the Once's happens-before edge orders the two.
	shutdownErr error
}

// BuildBackend loads the engine and family pools through a bench.Lab —
// the same substrate the batch benchmark and autopilot use.
func BuildBackend(cfg Config) (*Backend, error) {
	db, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	lab := bench.NewLab(cfg.Scale, cfg.Seed)
	lab.WorkloadSize = cfg.Pool
	pools := make(map[string][]string)
	for _, t := range cfg.Tenants {
		for _, f := range t.Families {
			if _, ok := pools[f]; ok {
				continue
			}
			fam := lab.Workload(cfg.System, f)
			sqls := make([]string, len(fam.Queries))
			for i, q := range fam.Queries {
				sqls[i] = q.SQL
			}
			pools[f] = sqls
		}
	}
	return &Backend{
		Engine: lab.Engine(cfg.System, db),
		Pools:  pools,
		Budget: lab.Budget(cfg.System, db),
	}, nil
}

// New validates the config and starts the background loader; the
// returned gateway serves 503 not-ready until the catalog is loaded.
func New(opts Options) (*Gateway, error) {
	cfg := opts.Config
	cfg.setDefaults()
	db, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		db:      db,
		tenants: make(map[string]*tenantState, len(cfg.Tenants)),
		byKey:   make(map[string]*tenantState, len(cfg.Tenants)),
		gate:    make(chan struct{}, cfg.GlobalInflight),
		audit:   newAuditor(opts.AuditSink),
		readyCh: make(chan struct{}),
	}
	g.tenantOrder = make([]string, 0, len(cfg.Tenants))
	for i := range cfg.Tenants {
		t := newTenantState(cfg.Tenants[i])
		g.tenants[t.cfg.Name] = t
		g.byKey[t.cfg.APIKey] = t
		g.tenantOrder = append(g.tenantOrder, t.cfg.Name)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", g.handleQuery)
	mux.HandleFunc("/v1/pool", g.handlePool)
	mux.HandleFunc("/v1/stats", g.handleStats)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux = mux

	build := opts.BackendFunc
	if opts.Backend != nil {
		b := opts.Backend
		build = func(Config) (*Backend, error) { return b, nil }
	}
	if build == nil {
		build = BuildBackend
	}
	// conflint:worker background catalog loader; terminates after one build and closes readyCh
	go g.load(build)
	return g, nil
}

// load builds the backend and — unless shutdown already began — starts
// the tuner and autoscaler and flips readiness.
func (g *Gateway) load(build func(Config) (*Backend, error)) {
	defer close(g.readyCh)
	b, err := build(g.cfg)
	if err == nil && g.cfg.sharded() && b.Cluster == nil {
		n := g.cfg.Shards
		if n < 1 {
			n = 1 // autoscale without explicit shards starts unsharded
		}
		var cl *shard.Cluster
		cl, err = shard.New(b.Engine, shard.Spec{Shards: n, Mode: shard.Mode(g.cfg.ShardMode)}, g.cfg.ShardPool)
		if err == nil {
			// Copy-on-write: the provided backend may be shared across
			// gateways (tests share one loaded lab), so never mutate it.
			nb := *b
			nb.Cluster = cl
			b = &nb
		}
	}
	var loop *recommender.Loop
	if err == nil && g.cfg.Tuning {
		loop, err = recommender.NewLoop(b.Engine, g.cfg.System, b.Budget, 1)
	}
	if err != nil {
		g.loadMu.Lock()
		g.loadErr = err
		g.loadMu.Unlock()
		return
	}
	g.acceptMu.Lock()
	defer g.acceptMu.Unlock()
	if g.draining {
		return
	}
	g.backend.Store(b)
	if g.cfg.Tuning {
		tn := newTuner(g, loop)
		g.tunerP.Store(tn)
		tn.start()
	}
	if g.cfg.Autoscale && b.Cluster != nil {
		as := newAutoscaler(g, b.Cluster)
		g.autoP.Store(as)
		as.start()
	}
}

// eng returns the loaded engine (handlers only call it once ready).
func (g *Gateway) eng() *engine.Engine { return g.backend.Load().Engine }

// cluster returns the shard cluster, nil when serving unsharded.
func (g *Gateway) cluster() *shard.Cluster { return g.backend.Load().Cluster }

// run executes one analyzed query on the serving substrate: partition-
// parallel through the shard cluster when sharded, directly on the
// engine otherwise. Results and simulated costs are byte-identical
// either way — the cluster's determinism contract.
func (g *Gateway) run(q *sql.Query, limitSeconds float64) (*exec.Result, engine.Measure, error) {
	if cl := g.cluster(); cl != nil {
		return cl.RunAnalyzed(q, limitSeconds)
	}
	return g.eng().RunAnalyzed(q, limitSeconds)
}

// transition applies a configuration through the cluster when sharded,
// so partitions pick up the base-table structures too.
func (g *Gateway) transition(cfg conf.Configuration) error {
	if cl := g.cluster(); cl != nil {
		_, err := cl.Transition(cfg)
		return err
	}
	_, err := g.eng().Transition(cfg)
	return err
}

// Ready reports whether the catalog is loaded and admission is open.
func (g *Gateway) Ready() bool {
	if g.backend.Load() == nil {
		return false
	}
	g.acceptMu.RLock()
	defer g.acceptMu.RUnlock()
	return !g.draining
}

// WaitReady blocks until the loader finishes (returning its error, if
// any) or the context ends.
func (g *Gateway) WaitReady(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-g.readyCh:
	}
	g.loadMu.Lock()
	defer g.loadMu.Unlock()
	return g.loadErr
}

// ServeHTTP makes the gateway a plain http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// queryRequest is the /v1/query body.
type queryRequest struct {
	// Seq is the client-assigned sequence number threaded into the audit
	// log (schedule position under a seeded load generator).
	Seq    int64  `json:"seq"`
	Family string `json:"family"`
	SQL    string `json:"sql"`
}

// queryResponse is the /v1/query success body. Rows carries at most the
// tenant's max_rows rendered rows; RowCount is the full result size.
type queryResponse struct {
	Seq        int64      `json:"seq"`
	Tenant     string     `json:"tenant"`
	Family     string     `json:"family"`
	SimSeconds float64    `json:"sim_seconds"`
	TimedOut   bool       `json:"timed_out,omitempty"`
	RowCount   int        `json:"row_count"`
	Cols       []string   `json:"cols,omitempty"`
	Rows       [][]string `json:"rows,omitempty"`
}

// statusOf maps a rejection reason to its HTTP status.
func statusOf(reason string) int {
	switch reason {
	case ReasonDraining, ReasonNotReady:
		return http.StatusServiceUnavailable
	case ReasonOversized:
		return http.StatusRequestEntityTooLarge
	case ReasonBadAPIKey:
		return http.StatusUnauthorized
	case ReasonReadOnly, ReasonCapability:
		return http.StatusForbidden
	case ReasonQueueFull:
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// reject records and writes one rejection. t may be nil (pre-auth).
func (g *Gateway) reject(w http.ResponseWriter, t *tenantState, seq int64, family, reason string, detail string) {
	status := statusOf(reason)
	tenant := "-"
	if t != nil {
		tenant = t.cfg.Name
		t.noteRejected(reason)
	}
	g.rejected.Add(1)
	g.audit.add(AuditRecord{
		Seq:      seq,
		Tenant:   tenant,
		Family:   family,
		Decision: DecisionReject,
		Reason:   reason,
		Status:   status,
	})
	if reason == ReasonQueueFull {
		w.Header().Set("Retry-After", "1")
	}
	body := map[string]string{"error": reason}
	if detail != "" {
		body["detail"] = detail
	}
	respond(w, status, body)
}

// respond writes one response — a string body as text, any other as
// JSON — best effort: the client owns the socket, so a failed write has
// nobody to report to.
func respond(w http.ResponseWriter, status int, body any) {
	text, isText := body.(string)
	out := []byte(text)
	if !isText {
		w.Header().Set("Content-Type", "application/json")
		var err error
		if out, err = json.Marshal(body); err != nil {
			status, out = http.StatusInternalServerError, []byte(`{"error":"encoding"}`)
		}
		out = append(out, '\n')
	}
	w.WriteHeader(status)
	// conflint:ignore best-effort response write; the client owns the socket
	w.Write(out)
}

// handleQuery is the request pipeline: authenticate, bound and decode
// the body, check readiness, authorize family and relations, enforce
// read-only, admit, execute, respond.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	t := g.byKey[r.Header.Get("X-API-Key")]
	if t == nil {
		g.reject(w, nil, -1, "", ReasonBadAPIKey, "")
		return
	}
	if r.Method != http.MethodPost {
		g.reject(w, t, -1, "", ReasonBadRequest, "POST required")
		return
	}
	req := queryRequest{Seq: -1}
	body := http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			g.reject(w, t, -1, "", ReasonOversized, "")
		} else {
			g.reject(w, t, -1, "", ReasonBadRequest, err.Error())
		}
		return
	}
	if g.backend.Load() == nil {
		g.reject(w, t, req.Seq, req.Family, g.notReadyReason(), "")
		return
	}
	if !t.families[req.Family] {
		g.reject(w, t, req.Seq, req.Family, ReasonCapability, fmt.Sprintf("family %q is not granted to tenant %q", req.Family, t.cfg.Name))
		return
	}
	stmt, err := sql.Parse(req.SQL)
	if err != nil {
		g.reject(w, t, req.Seq, req.Family, ReasonMalformedSQL, err.Error())
		return
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		g.reject(w, t, req.Seq, req.Family, ReasonReadOnly, "only SELECT is allowed")
		return
	}
	q, err := sql.Analyze(g.eng().Schema, sel)
	if err != nil {
		g.reject(w, t, req.Seq, req.Family, ReasonMalformedSQL, err.Error())
		return
	}
	if rel := deniedRelation(t, q); rel != "" {
		g.reject(w, t, req.Seq, req.Family, ReasonCapability, fmt.Sprintf("relation %q is not granted to tenant %q", rel, t.cfg.Name))
		return
	}

	if reason := g.admit(t, req.Family); reason != "" {
		g.reject(w, t, req.Seq, req.Family, reason, "")
		return
	}
	g.accepted.Add(1)
	res, m, err := g.execute(r.Context(), t, q)
	g.finish(t, req.Seq, req.Family, req.SQL, res, m, err)
	if err == errClientGone {
		return // nobody is reading; the audit record is the outcome
	}
	if err != nil {
		respond(w, http.StatusInternalServerError, map[string]string{"error": "execution-error", "detail": err.Error()})
		return
	}
	resp := queryResponse{
		Seq:        req.Seq,
		Tenant:     t.cfg.Name,
		Family:     req.Family,
		SimSeconds: m.Seconds,
		TimedOut:   m.TimedOut,
	}
	if res != nil {
		resp.RowCount = len(res.Rows)
		resp.Cols = res.Cols
		n := len(res.Rows)
		if n > t.cfg.MaxRows {
			n = t.cfg.MaxRows
		}
		resp.Rows = make([][]string, 0, n)
		for i := 0; i < n; i++ {
			row := make([]string, 0, len(res.Rows[i]))
			for _, v := range res.Rows[i] {
				row = append(row, v.String())
			}
			resp.Rows = append(resp.Rows, row)
		}
	}
	respond(w, http.StatusOK, resp)
}

// deniedRelation returns the first relation the query touches outside
// the tenant's allowlist ("" when authorized).
func deniedRelation(t *tenantState, q *sql.Query) string {
	if t.allow == nil {
		return ""
	}
	for _, qt := range q.Tables {
		if !t.allow[strings.ToLower(qt.Table.Name)] {
			return qt.Table.Name
		}
	}
	for _, in := range q.Ins {
		if !t.allow[strings.ToLower(in.SubTable.Name)] {
			return in.SubTable.Name
		}
	}
	return ""
}

// notReadyReason distinguishes "still loading" from "shutting down".
func (g *Gateway) notReadyReason() string {
	g.acceptMu.RLock()
	defer g.acceptMu.RUnlock()
	if g.draining {
		return ReasonDraining
	}
	return ReasonNotReady
}

// handlePool serves a tenant's sampled query pool for one granted
// family, so load generators need no catalog of their own.
func (g *Gateway) handlePool(w http.ResponseWriter, r *http.Request) {
	t := g.byKey[r.Header.Get("X-API-Key")]
	if t == nil {
		g.reject(w, nil, -1, "", ReasonBadAPIKey, "")
		return
	}
	b := g.backend.Load()
	if b == nil {
		g.reject(w, t, -1, "", g.notReadyReason(), "")
		return
	}
	family := r.URL.Query().Get("family")
	if !t.families[family] {
		g.reject(w, t, -1, family, ReasonCapability, fmt.Sprintf("family %q is not granted to tenant %q", family, t.cfg.Name))
		return
	}
	respond(w, http.StatusOK, map[string]any{"family": family, "queries": b.Pools[family]})
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.Ready() {
		respond(w, http.StatusOK, "ok\n")
		return
	}
	g.loadMu.Lock()
	loadErr := g.loadErr
	g.loadMu.Unlock()
	msg := g.notReadyReason()
	if loadErr != nil {
		msg = "load failed: " + loadErr.Error()
	}
	respond(w, http.StatusServiceUnavailable, msg+"\n")
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	respond(w, http.StatusOK, "ok\n")
}

// Shutdown drains and stops: close admission, wait for every accepted
// query to complete (each leaves its audit record before the drain
// ticket returns — the zero-dropped-after-accept contract), then join
// the tuner and autoscaler so no Transition or reshard is abandoned
// mid-build. Only then should the caller close its listener.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.shutdown1.Do(func() {
		g.acceptMu.Lock()
		g.draining = true
		g.acceptMu.Unlock()

		drained := make(chan struct{})
		// conflint:worker shutdown drain waiter; bounded by Shutdown's ctx select, signals drained and exits
		go func() {
			g.drainWG.Wait()
			close(drained)
		}()
		select {
		case <-ctx.Done():
			g.shutdownErr = ctx.Err()
			return
		case <-drained:
		}
		if tn := g.tunerP.Load(); tn != nil {
			tn.w.stop()
		}
		if as := g.autoP.Load(); as != nil {
			as.w.stop()
		}
	})
	return g.shutdownErr
}

// Package engine assembles the benchmark RDBMS: catalog, heap storage,
// B+-tree indexes, materialized views, statistics, the cost-based
// optimizer and the executor, behind a SQL front end.
//
// An Engine owns one database at one data scale factor and executes one
// configuration at a time (paper §2.1: the recommender changes the system
// from configuration Ci to Cj). It exposes the three cost measures of the
// paper's framework:
//
//	A(q, C)      Run        — actual simulated elapsed time
//	E(q, C)      Estimate   — optimizer estimate in the current config
//	H(q, Ch, Ca) WhatIf     — optimizer estimate for a hypothetical config
//	                          using statistics derived in the current one
package engine

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/val"
)

// Profile parameterizes a simulated commercial system (paper Systems A, B
// and C differ in optimizer behavior and recommender strategy).
type Profile struct {
	Name string
	// Opts is the optimizer profile, including the what-if conservatism.
	Opts optimizer.Options
	// MemBytes is the full-scale memory budget for hash operations
	// (2005 desktops: ~256 MB of working memory).
	MemBytes int64
}

// Engine is one database instance under one configuration.
//
// All state a query or an estimate can observe lives in one immutable
// snapshot behind cur. Readers — Run, Estimate, Prepare, Physical, the
// accessors and what-if estimation — load it once and take no lock;
// mutators (ApplyConfig, Transition, Load, InsertRows, CollectStats,
// NoteTopologyChange) serialize on mu, build the next snapshot beside the
// published one and swap it in with a single Store, or fail and publish
// nothing. Model is an exported field and is not guarded: callers that
// reassign it (the disk ablation) must hold exclusive use of the engine.
type Engine struct { // conflint:ignore mu only serializes mutators: all state is behind the atomic cur, which readers load without it
	Schema  *catalog.Schema
	Profile Profile

	// ScaleFactor is the fraction of the paper's full-scale row counts
	// actually stored; simulated time bills work as if at full scale.
	ScaleFactor float64
	Model       cost.Model

	// DisableWhatIfCache turns off the what-if relevance-keyed estimate
	// cache for sessions opened after it is set: the uncached path is
	// the reference the cache-identity tests compare against. Like
	// Model, it is not guarded: set it right after construction, before
	// the engine is shared.
	DisableWhatIfCache bool

	mu  sync.Mutex // serializes mutators; readers never take it
	cur atomic.Pointer[snapshot]
}

// snapshot is one published engine state. Nothing reachable from it is
// written after the Store that publishes it: a mutator copies what it
// changes (the Tables and Indexes maps, the TableInfo of a table it
// loads into) and shares the rest with its predecessor. Snapshot identity
// is the generation what-if sessions validate their caches against.
type snapshot struct {
	config conf.Configuration
	// phys carries the heaps and statistics (Tables), the built indexes
	// and the materialized views. Its Model and Mem are those of the
	// mutator that published it; query paths re-read the engine's.
	phys *plan.Physical
	// ready reports that every table has statistics. A snapshot published
	// before CollectStats is completed on first read (see snap).
	ready bool
}

// New creates an empty engine for the schema at the given data scale
// factor (1.0 = the paper's full-size databases).
func New(schema *catalog.Schema, scaleFactor float64, profile Profile) *Engine {
	if scaleFactor <= 0 {
		scaleFactor = 1
	}
	e := &Engine{
		Schema:      schema,
		Profile:     profile,
		ScaleFactor: scaleFactor,
		Model:       cost.Desktop2005().WithScale(1 / scaleFactor),
	}
	phys := &plan.Physical{
		Schema:  schema,
		Tables:  make(map[string]*plan.TableInfo),
		Indexes: make(map[string][]*plan.IndexInfo),
	}
	for _, t := range schema.Tables() {
		phys.Tables[strings.ToLower(t.Name)] = &plan.TableInfo{Table: t, Heap: storage.NewHeap(t)}
	}
	e.cur.Store(&snapshot{phys: phys})
	return e
}

// mutate runs one state change under the writer mutex: fn edits a copy of
// the published snapshot (copy-on-write — it must replace, never modify,
// anything the copy still shares) and the copy is published only if fn
// succeeds.
func (e *Engine) mutate(fn func(next *snapshot) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.cur.Load()
	phys := *cur.phys
	phys.Tables = maps.Clone(phys.Tables)
	phys.Indexes = maps.Clone(phys.Indexes)
	phys.Mem, phys.Model = e.Profile.MemBytes, e.Model
	next := &snapshot{config: cur.config, phys: &phys, ready: true}
	if err := fn(next); err != nil {
		return err
	}
	for _, ti := range phys.Tables {
		next.ready = next.ready && ti.Stats != nil
	}
	e.cur.Store(next)
	return nil
}

// publish is mutate for changes that cannot fail.
func (e *Engine) publish(fn func(next *snapshot)) {
	_ = e.mutate(func(next *snapshot) error { fn(next); return nil }) // conflint:ignore fn has no error to return
}

// snap returns the published snapshot, first collecting the statistics of
// any table the caller forgot to run CollectStats for.
func (e *Engine) snap() *snapshot {
	s := e.cur.Load()
	if !s.ready {
		e.publish(func(next *snapshot) { next.collectStats(false) })
		s = e.cur.Load()
	}
	return s
}

// collectStats (re)collects table statistics: all of them, or only the
// missing ones.
func (s *snapshot) collectStats(all bool) {
	for name, ti := range s.phys.Tables {
		if all || ti.Stats == nil {
			s.phys.Tables[name] = &plan.TableInfo{Table: ti.Table, Heap: ti.Heap, Stats: stats.Collect(ti.Heap)}
		}
	}
}

// growHeap swaps a private clone of the table's heap into the snapshot
// and returns it for appending.
func (s *snapshot) growHeap(table string) (*storage.Heap, error) {
	ti := s.phys.Table(table)
	if ti == nil {
		return nil, fmt.Errorf("engine: unknown table %s", table)
	}
	h := ti.Heap.Clone()
	s.phys.Tables[strings.ToLower(table)] = &plan.TableInfo{Table: ti.Table, Heap: h, Stats: ti.Stats}
	return h, nil
}

// Heap returns the heap of a base table.
func (e *Engine) Heap(table string) *storage.Heap {
	if ti := e.cur.Load().phys.Table(table); ti != nil {
		return ti.Heap
	}
	return nil
}

// Load bulk-inserts rows into a base table without cost accounting
// (loading is not part of any measured experiment).
func (e *Engine) Load(table string, rows []val.Row) error {
	return e.mutate(func(next *snapshot) error {
		h, err := next.growHeap(table)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := h.Insert(nil, r); err != nil {
				return err
			}
		}
		return nil
	})
}

// CollectStats runs statistics collection on every base table (the
// paper directs systems to collect statistics before recommending and
// before running queries, §3.2.3).
func (e *Engine) CollectStats() {
	e.publish(func(next *snapshot) { next.collectStats(true) })
}

// NoteTopologyChange records an estimate-moving change that happened
// outside this engine — resharding moves rows between partitions, so any
// H estimate cached against the old topology is stale. Publishing a new
// snapshot makes open what-if sessions flush on the next estimate.
func (e *Engine) NoteTopologyChange() {
	e.publish(func(*snapshot) {})
}

// TableStats returns the collected statistics for a base table.
func (e *Engine) TableStats(table string) *stats.TableStats { return e.cur.Load().stats(table) }

func (s *snapshot) stats(table string) *stats.TableStats {
	if ti := s.phys.Table(table); ti != nil {
		return ti.Stats
	}
	return nil
}

// Current returns the active configuration.
func (e *Engine) Current() conf.Configuration { return e.cur.Load().config }

// Views returns the materialized views of the active configuration.
func (e *Engine) Views() []*plan.ViewInfo { return e.cur.Load().phys.Views }

// Indexes returns the built indexes on a relation.
func (e *Engine) Indexes(rel string) []*plan.IndexInfo { return e.cur.Load().phys.IndexesOn(rel) }

// BuildReport summarizes applying a configuration (paper Table 1).
type BuildReport struct {
	Config conf.Configuration
	// Bytes is the total size of the database in the configuration:
	// base data plus indexes plus materialized views (full-scale bytes).
	Bytes int64
	// IndexBytes is the size of indexes and views beyond the base data.
	IndexBytes int64
	// BuildSeconds is the simulated time to build all indexes and views.
	BuildSeconds float64
	// ViewSeconds is the portion of BuildSeconds spent materializing
	// views. The sharded cluster needs the split: views stay global
	// (coordinator-serial) while index builds scale out with partitions.
	ViewSeconds float64
	// Built, Kept and Dropped count structures (indexes plus views)
	// constructed, carried over unchanged, and removed by the change —
	// the "index churn" an online tuner pays per transition. ApplyConfig
	// always rebuilds, so Kept is zero there; Transition reuses overlap.
	Built, Kept, Dropped int
}

// ApplyConfig drops the previous configuration's structures and builds the
// new configuration's indexes and materialized views, returning size and
// build-time figures. On error the previous configuration keeps serving.
func (e *Engine) ApplyConfig(c conf.Configuration) (BuildReport, error) {
	var rep BuildReport
	err := e.mutate(func(next *snapshot) (err error) {
		rep, err = e.applyConfig(next, c)
		return err
	})
	return rep, err
}

func (e *Engine) applyConfig(next *snapshot, c conf.Configuration) (BuildReport, error) {
	next.collectStats(false)
	phys := next.phys
	dropped := len(phys.Views)
	for _, list := range phys.Indexes {
		dropped += len(list)
	}
	phys.Indexes = make(map[string][]*plan.IndexInfo)
	phys.Views = nil
	next.config = c.Clone()

	var meter, viewMeter cost.Meter
	var extraBytes int64

	// Views first: view indexes may reference them.
	for _, vd := range c.Views {
		vi, m, err := e.buildView(next, vd)
		if err != nil {
			return BuildReport{}, fmt.Errorf("engine: building %s: %w", vd.Name, err)
		}
		meter.Add(m)
		viewMeter.Add(m)
		phys.Views = append(phys.Views, vi)
		extraBytes += int64(float64(vi.Heap.Bytes()) / e.ScaleFactor)
	}

	for _, d := range c.Indexes {
		ix, m, err := e.buildIndex(next, d)
		if err != nil {
			return BuildReport{}, fmt.Errorf("engine: building %s: %w", d.Name(), err)
		}
		meter.Add(m)
		key := strings.ToLower(d.Table)
		phys.Indexes[key] = append(phys.Indexes[key], ix)
		extraBytes += ix.Bytes
	}
	for _, list := range phys.Indexes {
		plan.SortIndexes(list)
	}

	return BuildReport{
		Config:       next.config,
		IndexBytes:   extraBytes,
		Bytes:        e.baseBytes(next) + extraBytes,
		BuildSeconds: e.Model.Seconds(&meter),
		ViewSeconds:  e.Model.Seconds(&viewMeter),
		Built:        len(c.Views) + len(c.Indexes),
		Dropped:      dropped,
	}, nil
}

func (e *Engine) baseBytes(s *snapshot) int64 {
	var b int64
	for _, ti := range s.phys.Tables {
		b += int64(float64(ti.Heap.Bytes()) / e.ScaleFactor)
	}
	return b
}

// findIndex returns the snapshot's built index matching the definition,
// if any.
func (s *snapshot) findIndex(d conf.IndexDef) *plan.IndexInfo {
	for _, ix := range s.phys.IndexesOn(d.Table) {
		if ix.Def.Equal(d) {
			return ix
		}
	}
	return nil
}

// findView returns the snapshot's built view with the given name, if any.
func (s *snapshot) findView(name string) *plan.ViewInfo {
	for _, v := range s.phys.Views {
		if strings.EqualFold(v.Def.Name, name) {
			return v
		}
	}
	return nil
}

// relation resolves a relation name to its schema and heap (base table or
// materialized view).
func (s *snapshot) relation(name string) (*catalog.Table, *storage.Heap, error) {
	if ti := s.phys.Table(name); ti != nil {
		return ti.Table, ti.Heap, nil
	}
	if v := s.findView(name); v != nil {
		return v.Table, v.Heap, nil
	}
	return nil, nil, fmt.Errorf("engine: unknown relation %s", name)
}

// buildIndex constructs a B+-tree for the definition and measures its
// sort-based build cost: one scan of the relation, a sort of the entries,
// and a sequential write of the leaves — the same scan, sort and leaf
// build fillTree performs.
func (e *Engine) buildIndex(s *snapshot, d conf.IndexDef) (*plan.IndexInfo, cost.Meter, error) {
	tab, heap, err := s.relation(d.Table)
	if err != nil {
		return nil, cost.Meter{}, err
	}
	cols := make([]int, len(d.Columns))
	for i, cn := range d.Columns {
		ci := tab.ColumnIndex(cn)
		if ci < 0 {
			return nil, cost.Meter{}, fmt.Errorf("no column %s in %s", cn, d.Table)
		}
		cols[i] = ci
	}

	tree, keyNDV := fillTree(heap, cols)
	ix := &plan.IndexInfo{
		Def:            d,
		Name:           d.Name(),
		Cols:           cols,
		Tree:           tree,
		Height:         tree.Height(),
		LeafPages:      tree.LeafPages(),
		EntriesPerLeaf: tree.EntriesPerLeafPage(),
		Bytes:          int64(float64(tree.Bytes()) / e.ScaleFactor),
		KeyNDV:         keyNDV,
	}

	n := float64(tree.Len())
	var m cost.Meter
	m.SeqPages = heap.Pages()
	m.WritePage = tree.LeafPages()
	if n > 1 {
		m.CPUOps = int64(n * math.Log2(n))
	}
	return ix, m, nil
}

// indexEntry is one (key, rid) pair of an index under construction.
type indexEntry struct {
	key val.Row
	rid int64
}

// fillTree indexes every row of the heap on the given columns and counts
// the distinct values of every key prefix — the exact statistics a built
// index provides and a hypothetical one can only approximate.
//
// Keys are projected into one flat array, sorted once by (key, rid) and
// handed to btree.Build. Rids break key ties, so the order is the one
// inserting the rows in heap order produces. Each key column is compared
// with val.CompareAs of its kind when all its values share one, and with
// val.Compare when they do not.
func fillTree(heap *storage.Heap, cols []int) (*btree.Tree, []int64) {
	w := len(cols)
	flat := make([]val.Value, 0, int(heap.NumRows())*w)
	entries := make([]indexEntry, 0, heap.NumRows())
	kinds := make([]val.Kind, w)
	heap.Scan(nil, func(id storage.RowID, r val.Row) bool {
		for i, c := range cols {
			v := r[c]
			switch {
			case len(entries) == 0:
				kinds[i] = v.K
			case kinds[i] != v.K:
				kinds[i] = val.KindNull // mixed: CompareAs falls back to Compare
			}
			flat = append(flat, v)
		}
		entries = append(entries, indexEntry{key: flat[len(flat)-w : len(flat) : len(flat)], rid: int64(id)})
		return true
	})

	cmps := make([]func(a, b val.Value) int, w)
	for i, k := range kinds {
		cmps[i] = val.CompareAs(k)
	}
	slices.SortFunc(entries, func(a, b indexEntry) int {
		for i, c := range cmps {
			if r := c(a.key[i], b.key[i]); r != 0 {
				return r
			}
		}
		return cmp.Compare(a.rid, b.rid)
	})

	keys := make([]val.Row, len(entries))
	rids := make([]int64, len(entries))
	ndv := make([]int64, w)
	for j, en := range entries {
		keys[j], rids[j] = en.key, en.rid
		i := 0 // the first column at which this key differs from the last
		for j > 0 && i < w && cmps[i](keys[j-1][i], en.key[i]) == 0 {
			i++
		}
		for ; i < w; i++ {
			ndv[i]++
		}
	}
	return btree.Build(keys, rids), ndv
}

// buildView materializes the view by executing its defining query and
// collecting statistics over the result.
func (e *Engine) buildView(s *snapshot, vd conf.ViewDef) (*plan.ViewInfo, cost.Meter, error) {
	q, err := e.AnalyzeSQL(vd.SQL)
	if err != nil {
		return nil, cost.Meter{}, err
	}
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		return nil, cost.Meter{}, fmt.Errorf("view %s: only projection views are supported", vd.Name)
	}

	// Plan against the base configuration (no secondary structures are
	// assumed during the build).
	p, err := optimizer.Optimize(s.phys, q, optimizer.Options{NoViews: true})
	if err != nil {
		return nil, cost.Meter{}, err
	}
	ctx := &exec.Ctx{Model: e.Model}
	res, err := exec.Run(p, ctx)
	if err != nil {
		return nil, cost.Meter{}, err
	}

	// Synthesize the view's schema from its output columns.
	cols := make([]catalog.Column, len(q.Out))
	outSrc := make([]sql.QCol, len(q.Out))
	for i, o := range q.Out {
		src := q.Tables[o.Col.Tab].Table.Columns[o.Col.Col]
		cols[i] = catalog.Column{
			Name:      "c" + strconv.Itoa(i),
			Type:      src.Type,
			Domain:    src.Domain,
			Indexable: src.Indexable,
			AvgWidth:  src.AvgWidth,
		}
		outSrc[i] = o.Col
	}
	vt, err := catalog.NewTable(vd.Name, cols, nil)
	if err != nil {
		return nil, cost.Meter{}, err
	}
	heap := storage.NewHeap(vt)
	for _, r := range res.Rows {
		if _, err := heap.Insert(nil, r); err != nil {
			return nil, cost.Meter{}, err
		}
	}
	// Build cost: the defining query's execution plus writing the result.
	m := ctx.Meter
	m.WritePage += heap.Pages()

	vi := &plan.ViewInfo{
		Def:    vd,
		Query:  q,
		Table:  vt,
		Heap:   heap,
		Stats:  stats.Collect(heap),
		OutSrc: outSrc,
	}
	return vi, m, nil
}

// Physical exposes the current physical design (for the recommenders):
// the published snapshot's own description, shared by every caller until
// the next mutator.
func (e *Engine) Physical() *plan.Physical { return e.snap().phys }

// livePhysical is the snapshot's description under the engine's current
// Model and memory budget, which callers with exclusive use may reassign
// between queries without reconfiguring.
func (e *Engine) livePhysical(s *snapshot) *plan.Physical {
	phys := *s.phys
	phys.Mem, phys.Model = e.Profile.MemBytes, e.Model
	return &phys
}

// Measure is one observed or estimated query cost.
type Measure struct {
	SQL      string
	Seconds  float64
	TimedOut bool
	Meter    cost.Meter
}

// Prepare parses, analyzes and optimizes a query under the current
// configuration.
func (e *Engine) Prepare(sqlText string) (*plan.Plan, error) {
	q, err := e.AnalyzeSQL(sqlText)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(e.livePhysical(e.snap()), q, e.Profile.Opts)
}

// Run executes the query under the current configuration with the given
// simulated-time limit (0 = no limit), returning the result rows (nil on
// timeout) and the measured cost A(q, C).
func (e *Engine) Run(sqlText string, limitSeconds float64) (*exec.Result, Measure, error) {
	p, err := e.Prepare(sqlText)
	if err != nil {
		return nil, Measure{}, err
	}
	return e.execPlan(p, sqlText, limitSeconds)
}

// RunAnalyzed executes an already-analyzed query under the current
// configuration. This is the gateway's serving path: the request pipeline
// parses and analyzes once for authorization and must not pay the SQL
// front end a second time per request. The query must have been analyzed
// against this engine's schema.
func (e *Engine) RunAnalyzed(q *sql.Query, limitSeconds float64) (*exec.Result, Measure, error) {
	p, err := optimizer.Optimize(e.livePhysical(e.snap()), q, e.Profile.Opts)
	if err != nil {
		return nil, Measure{}, err
	}
	return e.execPlan(p, q.SQL(), limitSeconds)
}

// execPlan runs an optimized plan and folds the execution into a Measure.
func (e *Engine) execPlan(p *plan.Plan, sqlText string, limitSeconds float64) (*exec.Result, Measure, error) {
	ctx := &exec.Ctx{Model: e.Model, LimitSeconds: limitSeconds}
	res, runErr := exec.Run(p, ctx)
	m := Measure{SQL: sqlText, Seconds: ctx.Seconds(), Meter: ctx.Meter}
	if runErr != nil {
		if runErr == exec.ErrTimeout {
			m.TimedOut = true
			m.Seconds = limitSeconds
			return nil, m, nil
		}
		return nil, Measure{}, runErr
	}
	if limitSeconds > 0 && m.Seconds > limitSeconds {
		// Work billed at operator boundaries may overshoot the limit.
		m.TimedOut = true
		m.Seconds = limitSeconds
	}
	return res, m, nil
}

// Estimate returns the optimizer's estimated cost E(q, C) of the query in
// the current configuration.
func (e *Engine) Estimate(sqlText string) (Measure, error) {
	p, err := e.Prepare(sqlText)
	if err != nil {
		return Measure{}, err
	}
	return Measure{SQL: sqlText, Seconds: p.Est.Seconds, Meter: p.Est.Meter}, nil
}

// Determinism: a seeded sync fleet must yield byte-identical per-tenant
// audit dumps and goal reports across repeated runs and across client
// parallelism N ∈ {1, 4, 16}. Sequence numbers come from the schedule,
// goal levels from order-insensitive cumulative counters, and all timing
// is simulated — so the worker interleaving cannot leak into the bytes.
package gateway

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fleetReq is one scheduled request: seq is its schedule position, which
// the gateway threads into the audit log, and status the answer the
// schedule itself determines.
type fleetReq struct {
	seq    int64
	tenant TenantConfig
	family string
	sql    string
	status int
}

// seededSchedule assigns 24 one-query sessions to the tenants round-robin
// and samples each query from the tenant's pools with a fixed seed, so
// every fleet issues the identical request set. The first tenant then
// collects three distinct rejection reasons, each decided by the request
// alone: its Rejected map has more than one key, so a report that ranged
// over it unsorted would not render the same bytes twice.
func seededSchedule(t *testing.T, tenants []TenantConfig) []fleetReq {
	t.Helper()
	pools := sharedBackend(t).Pools
	rng := rand.New(rand.NewSource(11))
	schedule := make([]fleetReq, 24, 27)
	for s := range schedule {
		tc := tenants[s%len(tenants)]
		fam := tc.Families[rng.Intn(len(tc.Families))]
		pool := pools[fam]
		schedule[s] = fleetReq{seq: int64(s), tenant: tc, family: fam, sql: pool[rng.Intn(len(pool))], status: http.StatusOK}
	}
	alpha := tenants[0] // granted NREF2J only
	for _, bad := range []fleetReq{
		{family: "NREF2J", sql: "SELECT FROM", status: http.StatusBadRequest},                                         // malformed-sql
		{family: "NREF3J", sql: pools["NREF3J"][0], status: http.StatusForbidden},                                     // capability-violation
		{family: "NREF2J", sql: "INSERT INTO protein VALUES ('NF1', 'p', 1, 'SEQ', 3)", status: http.StatusForbidden}, // read-only
	} {
		bad.seq, bad.tenant = int64(len(schedule)), alpha
		schedule = append(schedule, bad)
	}
	return schedule
}

// runSchedule executes the schedule as an indexed fan-out: worker w of N
// takes positions w, w+N, w+2N, ... so the executed request set — and
// with per-tenant caps at or above N, every admission decision — is
// identical at any worker count. It returns how many requests the
// gateway did not answer as scheduled.
func runSchedule(t *testing.T, baseURL string, schedule []fleetReq, workers int) int64 {
	t.Helper()
	var wg sync.WaitGroup
	var refused atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(schedule); i += workers {
				r := schedule[i]
				if status, _, _ := postQuery(t, baseURL, r.tenant.APIKey, r.seq, r.family, r.sql); status != r.status {
					refused.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return refused.Load()
}

// runSyncFleet drives one fresh gateway with the fixed seeded schedule
// and returns the deterministic artifacts.
func runSyncFleet(t *testing.T, workers int) (dumps map[string]string, goalReport string) {
	t.Helper()
	cfg := testConfig() // tuning off: the determinism contract fixes the configuration
	g, ts := newTestGateway(t, cfg)
	// Per-tenant caps exceed the worker count, so admission decisions
	// are schedule-determined: nothing may bounce.
	if refused := runSchedule(t, ts.URL, seededSchedule(t, cfg.Tenants), workers); refused != 0 {
		t.Fatalf("sync fleet: %d requests not answered as scheduled — caps must exceed workers", refused)
	}
	dumps = make(map[string]string, len(cfg.Tenants))
	for _, tc := range cfg.Tenants {
		dumps[tc.Name] = string(g.AuditDumpTenant(tc.Name))
		if dumps[tc.Name] == "" {
			t.Fatalf("tenant %s has an empty audit dump", tc.Name)
		}
	}
	// The rendered ledgers are functions of the counters: rendering them
	// again must not move a byte. Map iteration starts at a random offset
	// per range, so sixteen renders see an unsorted one with near
	// certainty where three fleets would mostly agree by luck.
	goalReport = g.GoalReport() + rejectedMetrics(t, ts.URL)
	if !strings.Contains(goalReport, "alpha.rejected."+ReasonCapability) || !strings.Contains(goalReport, "alpha.rejected."+ReasonMalformedSQL) {
		t.Fatalf("schedule did not give alpha two rejection reasons:\n%s", goalReport)
	}
	for i := 0; i < 16; i++ {
		if again := g.GoalReport() + rejectedMetrics(t, ts.URL); again != goalReport {
			t.Fatalf("rendering the same counters twice differs:\n--- first\n%s--- again\n%s", goalReport, again)
		}
	}
	return dumps, goalReport
}

// rejectedMetrics returns /metrics' per-tenant rejection lines — the one
// section of the exposition that ranges over a map and carries no wall
// clock.
func rejectedMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	var b strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "gateway_tenant_rejected_total{") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestDeterminismAcrossRunsAndParallelism(t *testing.T) {
	baseDumps, baseReport := runSyncFleet(t, 4)

	// Same seed, same workers: byte-identical artifacts.
	repDumps, repReport := runSyncFleet(t, 4)
	if repReport != baseReport {
		t.Errorf("goal report differs across identical runs:\n--- run1\n%s--- run2\n%s", baseReport, repReport)
	}
	for name, dump := range baseDumps {
		if repDumps[name] != dump {
			t.Errorf("tenant %s audit dump differs across identical runs", name)
		}
	}

	// Same seed, different client parallelism: still byte-identical.
	for _, workers := range []int{1, 16} {
		dumps, report := runSyncFleet(t, workers)
		if report != baseReport {
			t.Errorf("goal report differs at %d workers:\n--- base(4)\n%s--- %d\n%s", workers, baseReport, workers, report)
		}
		for name, dump := range baseDumps {
			if dumps[name] != dump {
				t.Errorf("tenant %s audit dump differs at %d workers", name, workers)
			}
		}
	}
}

// TestGoalLevelMatchesCFCSatisfaction pins the cumulative counter
// shortcut to the paper-facing definition: the per-step counters must
// grade exactly like core.Goal.Satisfaction over the cumulative CFC.
func TestGoalLevelMatchesCFCSatisfaction(t *testing.T) {
	tc := TenantConfig{Name: "x", APIKey: "k", Families: []string{"NREF2J"}, Goal: "10:0.25,60:0.50,400:0.95"}
	cfg := Config{Tenants: []TenantConfig{tc}}
	cfg.setDefaults()
	st := newTenantState(cfg.Tenants[0])
	times := []float64{1, 5, 9, 10, 11, 59, 60, 61, 200, 399, 400, 500, 1200}
	for _, s := range times {
		st.noteCompleted("q", s, false, false)
	}
	st.noteCompleted("q", 0, true, false) // one timeout joins the denominator

	st.mu.Lock()
	got := st.goalLevelLocked()
	st.mu.Unlock()

	goal, err := core.ParseGoal(tc.Goal)
	if err != nil {
		t.Fatalf("parse goal: %v", err)
	}
	ms := make([]core.Measure, 0, len(times)+1)
	for _, s := range times {
		ms = append(ms, core.Measure{Seconds: s})
	}
	ms = append(ms, core.Measure{TimedOut: true})
	want := goal.Satisfaction(core.NewCFC(ms, 0))
	if got != want {
		t.Errorf("goal level %v, want %v (CFC reference)", got, want)
	}
}

// TestSnapshotWindowMatchesCFC pins the sliding window /v1/stats serves.
// Over 2×Window+3 completions, with timeouts and one errored query among
// them, after every completion the window fields must grade exactly the
// last Window non-errored measures — so a ring slot that drifts across
// the wrap-around or the errored query shows — and a window that has not
// filled yet reports goal level 0.
func TestSnapshotWindowMatchesCFC(t *testing.T) {
	const window = 8
	tc := TenantConfig{Name: "x", APIKey: "k", Families: []string{"NREF2J"}, Goal: "300:0.50,350:0.75", Window: window}
	cfg := Config{Tenants: []TenantConfig{tc}}
	cfg.setDefaults()
	st := newTenantState(cfg.Tenants[0])
	goal, err := core.ParseGoal(tc.Goal)
	if err != nil {
		t.Fatalf("parse goal: %v", err)
	}

	var kept []core.Measure // the non-errored completions, in order
	for i := 0; i < 2*window+3; i++ {
		s, timedOut, errored := float64(i+1)*20, i == 4 || i == 15, i == 9
		st.noteCompleted("q", s, timedOut, errored)
		if !errored {
			kept = append(kept, core.Measure{Seconds: s, TimedOut: timedOut})
		}
		snap := st.snapshot()
		if len(kept) < window {
			if snap.WindowGoalLevel != 0 {
				t.Errorf("completion %d: partial window goal level = %v, want 0", i, snap.WindowGoalLevel)
			}
			continue
		}
		cfc := core.NewCFC(kept[len(kept)-window:], 0)
		if want := goal.Satisfaction(cfc); snap.WindowGoalLevel != want {
			t.Errorf("completion %d: WindowGoalLevel = %v, want %v", i, snap.WindowGoalLevel, want)
		}
		if want := core.FiniteOrNeg(cfc.Quantile(0.50)); snap.WindowP50 != want {
			t.Errorf("completion %d: WindowP50 = %v, want %v", i, snap.WindowP50, want)
		}
		if want := core.FiniteOrNeg(cfc.Quantile(0.95)); snap.WindowP95 != want {
			t.Errorf("completion %d: WindowP95 = %v, want %v", i, snap.WindowP95, want)
		}
	}
}

// AuditDumpTenant renders one tenant's audit log as JSON lines, ordered
// by client sequence number (arrival order as tiebreak). For a seeded
// schedule with unique sequence numbers the bytes are identical across
// runs and across any server/client parallelism.
func (g *Gateway) AuditDumpTenant(tenant string) []byte {
	recs := g.audit.snapshot()
	kept := recs[:0]
	for _, r := range recs {
		if r.Tenant == tenant {
			kept = append(kept, r)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].Seq != kept[j].Seq {
			return kept[i].Seq < kept[j].Seq
		}
		return kept[i].arrival < kept[j].arrival
	})
	var out []byte
	for i := range kept {
		data, err := json.Marshal(&kept[i])
		if err != nil {
			continue
		}
		out = append(out, data...)
		out = append(out, '\n')
	}
	return out
}

// GoalReport renders the deterministic per-tenant goal ledger: for a
// seeded schedule it is byte-identical across runs and parallelism (the
// numbers derive from order-insensitive cumulative counters). Reasons
// and tenants iterate in sorted/config order.
func (g *Gateway) GoalReport() string {
	var b strings.Builder
	b.WriteString("tenant  admitted  completed  timeouts  rejected  goal_level\n")
	for _, name := range g.tenantOrder {
		t := g.tenants[name].snapshot()
		reasons := sortedKeys(t.Rejected)
		var nrej int64
		for _, reason := range reasons {
			nrej += t.Rejected[reason]
		}
		b.WriteString(t.Tenant + "  " + strconv.FormatInt(t.Admitted, 10) + "  " +
			strconv.FormatInt(t.Completed, 10) + "  " + strconv.FormatInt(t.Timeouts, 10) + "  " +
			strconv.FormatInt(nrej, 10) + "  " + strconv.FormatFloat(t.GoalLevel, 'f', 4, 64) + "\n")
		for _, reason := range reasons {
			b.WriteString("  " + t.Tenant + ".rejected." + reason + " = " + strconv.FormatInt(t.Rejected[reason], 10) + "\n")
		}
	}
	return b.String()
}

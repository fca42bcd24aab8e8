package autopilot

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestDriftRecovery is the headline behavior, in overlapped mode under
// whatever scheduler the race detector provides: the controller notices
// the mixture flip, applies a transition while traffic flows, and the
// final window's goal satisfaction recovers to at least the pre-drift
// level.
func TestDriftRecovery(t *testing.T) {
	opts := tinyOpts(4, false) // overlapped transitions
	ap, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	reports, retunes, err := ap.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var driftRetune *RetuneRecord
	for i := range retunes {
		if strings.Contains(retunes[i].Reason, "mix-shift") {
			driftRetune = &retunes[i]
		}
	}
	if driftRetune == nil {
		t.Fatalf("controller never detected the mix shift; retunes: %+v", retunes)
	}
	if driftRetune.Err != "" {
		t.Fatalf("drift retune failed: %s", driftRetune.Err)
	}
	if driftRetune.Built == 0 {
		t.Error("drift retune built nothing; transition was a no-op")
	}

	preDrift := reports[0].Satisfaction
	final := reports[len(reports)-1].Satisfaction
	if final < preDrift {
		t.Errorf("no recovery: final satisfaction %.2f < pre-drift %.2f\n%s",
			final, preDrift, RenderTable(reports, retunes))
	}

	m := ap.Metrics().Snapshot()
	wantQueries := int64(opts.Windows * opts.WindowSize)
	if m.QueriesServed != wantQueries {
		t.Errorf("metrics served %d queries, want %d", m.QueriesServed, wantQueries)
	}
	if m.WindowsCompleted != int64(opts.Windows) {
		t.Errorf("metrics windows = %d, want %d", m.WindowsCompleted, opts.Windows)
	}
	if m.RetunesApplied < 1 {
		t.Error("metrics recorded no applied retunes")
	}
	if m.RetunesInFlight != 0 {
		t.Errorf("retunes still in flight after Run: %d", m.RetunesInFlight)
	}
}

// TestStaticBaselineNeverRetunes checks the comparison arm: after the
// warmup tune the configuration is frozen no matter what the stream does.
func TestStaticBaselineNeverRetunes(t *testing.T) {
	opts := tinyOpts(1, true)
	opts.Static = true
	reports, retunes := runBounded(t, opts)
	if len(retunes) != 1 || retunes[0].Reason != "warmup" {
		t.Fatalf("static run retuned beyond warmup: %+v", retunes)
	}
	for _, rep := range reports {
		if rep.Trigger != "" {
			t.Errorf("window %d has trigger %q in static mode", rep.Window, rep.Trigger)
		}
		if rep.Config != retunes[0].Name {
			t.Errorf("window %d served by %q, want frozen %q", rep.Window, rep.Config, retunes[0].Name)
		}
	}
}

func TestStreamDriftAndSequencing(t *testing.T) {
	mk := func(name string, n int) workload.Family {
		f := workload.Family{Name: name}
		for i := 0; i < n; i++ {
			f.Queries = append(f.Queries, workload.Query{SQL: name, Family: name})
		}
		return f
	}
	pools := []workload.Family{mk("X", 5), mk("Y", 5)}
	s, err := newStream(1, pools, []float64{0.9, 0.1}, []float64{0.1, 0.9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	countY := func(qs []workload.Query) int {
		n := 0
		for _, q := range qs {
			if q.Family == "Y" {
				n++
			}
		}
		return n
	}
	w0, err := s.Window(0, 400)
	if err != nil {
		t.Fatal(err)
	}
	if y := countY(w0); y < 10 || y > 90 {
		t.Errorf("pre-drift Y share %d/400, want ≈40", y)
	}
	if _, err := s.Window(0, 10); err == nil {
		t.Error("re-drawing window 0 should fail: windows are sequential")
	}
	if _, err := s.Window(1, 10); err != nil {
		t.Fatal(err)
	}
	w2, err := s.Window(2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if y := countY(w2); y < 310 || y > 410 {
		t.Errorf("post-drift Y share %d/400, want ≈360", y)
	}
}

func TestMixtureValidation(t *testing.T) {
	f := workload.Family{Name: "X", Queries: []workload.Query{{SQL: "q", Family: "X"}}}
	if _, err := workload.NewMixture(nil, nil); err == nil {
		t.Error("empty mixture should fail")
	}
	if _, err := workload.NewMixture([]workload.Family{f}, []float64{0}); err == nil {
		t.Error("zero-mass mixture should fail")
	}
	if _, err := workload.NewMixture([]workload.Family{f}, []float64{1, 2}); err == nil {
		t.Error("mismatched weights should fail")
	}
	if _, err := workload.NewMixture([]workload.Family{{Name: "empty"}}, []float64{1}); err == nil {
		t.Error("empty family should fail")
	}
	m, err := workload.NewMixture([]workload.Family{f}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Proportions(); got[0] != 1 {
		t.Errorf("Proportions = %v, want [1]", got)
	}
	if q := m.Draw(rand.New(rand.NewSource(1))); q.Family != "X" {
		t.Errorf("Draw picked %q", q.Family)
	}
}

func TestObserverWindowReport(t *testing.T) {
	obs := &observer{
		goal:     core.Goal{Name: "g", Steps: []core.GoalStep{{X: 10, Frac: 0.5}}},
		timeout:  100,
		famOrder: []string{"X", "Y"},
	}
	qs := []workload.Query{
		{SQL: "a", Family: "X"}, {SQL: "b", Family: "X"},
		{SQL: "c", Family: "Y"}, {SQL: "d", Family: "Y"},
	}
	ms := []core.Measure{
		{SQL: "a", Seconds: 1}, {SQL: "b", Seconds: 2},
		{SQL: "c", Seconds: 50}, {SQL: "d", Seconds: 100, TimedOut: true},
	}
	est := []core.Measure{
		{SQL: "a", Seconds: 2}, {SQL: "b", Seconds: 2},
		{SQL: "c", Seconds: 25}, {SQL: "d", Seconds: 1},
	}
	rep := obs.observe(3, "P", qs, ms, est)
	if rep.Window != 3 || rep.Queries != 4 || rep.Timeouts != 1 {
		t.Errorf("header fields wrong: %+v", rep)
	}
	if got := rep.Mix; got[0].Count != 2 || got[1].Count != 2 {
		t.Errorf("mix = %+v", got)
	}
	if rep.P50 != 2 {
		t.Errorf("p50 = %v, want 2", rep.P50)
	}
	if !math.IsInf(rep.P99, 1) {
		t.Errorf("p99 = %v, want +Inf (timeout)", rep.P99)
	}
	// Ratios over completed queries: 2/1, 2/2, 25/50 → sorted {0.5, 1, 2}.
	if rep.EAMedian != 1 || rep.EAP90 != 2 {
		t.Errorf("E/A quantiles = %v, %v, want 1, 2", rep.EAMedian, rep.EAP90)
	}
	// 2 of 4 queries complete under 10s → step met exactly.
	if !rep.Satisfied || rep.Satisfaction != 1 {
		t.Errorf("goal verdict = %v/%v, want ok/1", rep.Satisfied, rep.Satisfaction)
	}
}

func TestControllerConsider(t *testing.T) {
	c := &controller{threshold: 0.25}
	mk := func(x, y int, sat bool) WindowReport {
		return WindowReport{
			Mix:       []FamilyCount{{Family: "X", Count: x}, {Family: "Y", Count: y}},
			Satisfied: sat,
		}
	}
	// Before any tune: only a goal violation triggers (cold start).
	if d := c.consider(mk(9, 1, true)); d.Retune {
		t.Errorf("satisfied cold start should not retune: %+v", d)
	}
	if d := c.consider(mk(9, 1, false)); !d.Retune || d.Reason != "goal-violation" {
		t.Errorf("violated cold start: %+v", d)
	}
	// After tuning for 90:10, the same mix no longer triggers on
	// violation alone (already tried), but a flip does.
	c.lastTuneMix = []float64{0.9, 0.1}
	c.tunedThisMix = true
	if d := c.consider(mk(9, 1, false)); d.Retune {
		t.Errorf("retuning the already-tuned mix churns: %+v", d)
	}
	if d := c.consider(mk(1, 9, true)); !d.Retune || d.Reason != "mix-shift" {
		t.Errorf("flip while satisfied: %+v", d)
	}
	if d := c.consider(mk(1, 9, false)); !d.Retune || d.Reason != "mix-shift+goal-violation" {
		t.Errorf("flip while violated: %+v", d)
	}
}

func TestMetricsHandler(t *testing.T) {
	m := NewMetrics()
	m.ObserveQuery(core.Measure{Seconds: 1})
	m.ObserveQuery(core.Measure{Seconds: 2, TimedOut: true})
	m.ObserveWindow(WindowReport{Window: 0, Config: "P", Queries: 2, P95: 2, Satisfied: false, Satisfaction: 0.5})

	h := m.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"autopilot_queries_served_total 2",
		"autopilot_query_timeouts_total 1",
		"autopilot_windows_completed_total 1",
		"autopilot_goal_violations_total 1",
		"autopilot_window_goal_satisfaction 0.5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if health["status"] != "ok" {
		t.Errorf("/healthz status = %v", health["status"])
	}
	if health["queries_served"].(float64) != 2 {
		t.Errorf("/healthz queries_served = %v", health["queries_served"])
	}
}

// TestOptionsValidation covers the assembly errors a daemon flag typo
// would hit.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("no families should fail")
	}
	if _, err := New(Options{Families: []FamilyShare{{Family: "NOPE", Weight: 1}}}); err == nil {
		t.Error("unknown family should fail")
	}
	if _, err := New(Options{Families: []FamilyShare{
		{Family: "NREF2J", Weight: 1}, {Family: "SkTH3J", Weight: 1},
	}}); err == nil {
		t.Error("families on different databases should fail")
	}
	if _, err := New(Options{
		Recommender: "Z",
		Families:    []FamilyShare{{Family: "NREF2J", Weight: 1}},
	}); err == nil {
		t.Error("unknown recommender should fail")
	}
	if _, err := New(Options{
		Families: []FamilyShare{{Family: "NREF2J", Weight: 1}},
		Drift:    &Drift{AtWindow: 1, Shares: []FamilyShare{{Family: "NREF3J", Weight: 1}}},
	}); err == nil {
		t.Error("drift family outside the base mixture should fail")
	}
}

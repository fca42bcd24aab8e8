package gateway

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/recommender"
)

// TestTunerRetunesUnderLoad drives one tenant past a full window under a
// goal no configuration can meet, so finish nudges the tuner while the
// tenant keeps querying. The retune must publish its configuration
// without error, must not change what a query returns, and Shutdown must
// join it and leave nothing in flight. The engine is the test's own: it
// starts under P whatever the other suites did to the shared one.
func TestTunerRetunesUnderLoad(t *testing.T) {
	cfg := testConfig(TenantConfig{
		Name: "alpha", APIKey: "alpha-key", Families: []string{"NREF2J"},
		MaxQueue: 32, MaxConcurrency: 2, Window: 4,
		Goal: "0.000000001:1.0", // 100% under a nanosecond: every full window violates
	})
	cfg.Tuning = true
	b, err := BuildBackend(backendConfig())
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	g, ts := newTestGatewayOn(t, cfg, b)

	rowsOf := func(seq int64, sqlText string) string {
		t.Helper()
		st, body, _ := postQuery(t, ts.URL, "alpha-key", seq, "NREF2J", sqlText)
		if st != 200 {
			t.Fatalf("query %d: status %d body %v", seq, st, body)
		}
		return fmt.Sprint(body["row_count"], body["cols"], body["rows"])
	}
	probe := poolQuery(t, ts.URL, "alpha-key", "NREF2J", 0)
	before := rowsOf(0, probe)
	for i := 1; g.Stats().Retunes < 1; i++ {
		if i > 400 {
			t.Fatalf("no retune after %d queries; stats = %+v", i, g.Stats())
		}
		rowsOf(int64(i), poolQuery(t, ts.URL, "alpha-key", "NREF2J", i))
	}
	if name := b.Engine.Current().Name; name != "gw-retune" {
		t.Errorf("engine serves configuration %q after the retune, want gw-retune", name)
	}
	if after := rowsOf(1000, probe); after != before {
		t.Errorf("retune changed the probe's answer:\nbefore %s\nafter  %s", before, after)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s := g.Stats()
	if s.Retunes < 1 || s.RetuneErrs != 0 {
		t.Errorf("retunes %d, retune errors %d; want at least one applied and none failed", s.Retunes, s.RetuneErrs)
	}
	if s.Inflight != 0 {
		t.Errorf("shutdown left %d queries in flight", s.Inflight)
	}
}

// TestTunerSearchesEachSQLSetOnce holds TestTunerRetunesUnderLoad's
// tenant under its unmeetable goal for 300 queries over pool indices
// 0–19, which are 12 distinct texts. Every full window nudges the tuner,
// but it may search only once per distinct set of recent texts, and no
// retune may apply a Transition that builds and drops nothing. Tuning is
// off, and the test calls retune itself at each nudge finish would send
// (every Window completions), so each retune's effect is seen alone.
func TestTunerSearchesEachSQLSetOnce(t *testing.T) {
	const window = 4
	cfg := testConfig(TenantConfig{
		Name: "alpha", APIKey: "alpha-key", Families: []string{"NREF2J"},
		MaxQueue: 32, MaxConcurrency: 2, Window: window,
		Goal: "0.000000001:1.0",
	})
	b, err := BuildBackend(backendConfig())
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	g, ts := newTestGatewayOn(t, cfg, b)
	loop, err := recommender.NewLoop(b.Engine, "B", b.Budget)
	if err != nil {
		t.Fatal(err)
	}
	tn := newTuner(g, loop)

	texts := make([]string, 20)
	for i := range texts {
		texts[i] = poolQuery(t, ts.URL, "alpha-key", "NREF2J", i)
	}
	// No index serves a scan of every column, so once the pool's texts
	// are tuned for, adding this one changes the set but not the
	// recommendation: the last nudge must end unchanged, not applied.
	texts = append(texts, "SELECT nref_id, p_name, last_updated, sequence, length FROM protein")
	structures := func() string {
		cur := b.Engine.Current()
		var s []string
		for _, d := range cur.Indexes {
			s = append(s, d.String())
		}
		for _, v := range cur.Views {
			s = append(s, v.String())
		}
		sort.Strings(s)
		return strings.Join(s, "\n")
	}
	searched := make(map[string]bool)
	empty := 0
	for i := 0; i < 300+window; i++ {
		text := texts[i%20]
		if i >= 300 {
			text = texts[20]
		}
		if st, body, _ := postQuery(t, ts.URL, "alpha-key", int64(i), "NREF2J", text); st != 200 {
			t.Fatalf("query %d: status %d body %v", i, st, body)
		}
		if (i+1)%window != 0 {
			continue
		}
		set := g.tenants["alpha"].recentQueries()
		sort.Strings(set)
		key := strings.Join(set, "\n")
		calls, _ := engine.WhatIfCounters()
		before, applied := structures(), tn.applied.Load()
		tn.retune()
		if now, _ := engine.WhatIfCounters(); now > calls {
			if searched[key] {
				t.Errorf("query %d: a second search for a set of %d texts already tuned for", i, len(set))
			}
			searched[key] = true
		}
		if tn.applied.Load() > applied && structures() == before {
			empty++
		}
	}
	applied, unchanged, failed := tn.applied.Load(), tn.unchanged.Load(), tn.failed.Load()
	t.Logf("%d searches: %d applied, %d unchanged, %d failed", len(searched), applied, unchanged, failed)
	if empty != 0 {
		t.Errorf("%d Transitions built and dropped nothing", empty)
	}
	if applied < 1 || unchanged != 1 || failed != 0 || applied+unchanged != int64(len(searched)) {
		t.Errorf("want at least one applied, the full scan's set unchanged, none failed, and one outcome per search")
	}
}

// TestFailedRetuneKeepsItsReason: a retune that cannot recommend is
// counted and its reason is served in the stats — an operator seeing
// retune_errors climb must be able to tell why without a debugger. The
// failed set counts as tuned for: a nudge on the same set would fail
// the same way, so it ends before any search.
func TestFailedRetuneKeepsItsReason(t *testing.T) {
	cfg := testConfig(TenantConfig{Name: "alpha", APIKey: "alpha-key", Families: []string{"NREF2J"}})
	cfg.Tuning = true
	g, _ := newTestGateway(t, cfg)

	ten := g.tenants["alpha"]
	ten.mu.Lock()
	ten.recentSQL = append(ten.recentSQL, "SELECT FROM WHERE")
	ten.mu.Unlock()
	for range 2 {
		g.tunerP.Load().retune()
	}

	s := g.Stats()
	if s.Retunes != 0 || s.RetunesUnchanged != 0 || s.RetuneErrs != 1 || !strings.HasPrefix(s.RetuneLastError, "recommend: ") {
		t.Errorf("retunes %d, unchanged %d, retune errors %d, last error %q; want 0, 0, 1 and a recommend reason",
			s.Retunes, s.RetunesUnchanged, s.RetuneErrs, s.RetuneLastError)
	}
}

// TestWorkerCoalescesAndStops pins the coalescing worker the tuner and
// the autoscaler share: a burst of signals while a run is blocked
// returns at once (within a 1 s deadline, so a blocking signal fails
// here in seconds) and yields exactly one further run, stop waits for
// the run in flight, and a second stop returns.
func TestWorkerCoalescesAndStops(t *testing.T) {
	w := newWorker()
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	var runs atomic.Int64
	go func() {
		defer close(w.done)
		for range w.trigger {
			runs.Add(1)
			entered <- struct{}{}
			<-release
		}
	}()
	w.signal()
	<-entered
	burst := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			w.signal()
		}
		close(burst)
	}()
	select {
	case <-burst:
	case <-time.After(time.Second):
		t.Fatal("a burst of 100 signals blocked while a run was in flight: signal must never wait")
	}
	release <- struct{}{}
	<-entered

	stopped := make(chan struct{})
	go func() {
		w.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a run was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-stopped
	if n := runs.Load(); n != 2 {
		t.Errorf("%d runs, want 2: the burst must coalesce into one", n)
	}
	w.stop()
}

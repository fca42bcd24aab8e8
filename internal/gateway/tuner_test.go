package gateway

import (
	"context"
	"fmt"
	"testing"
	"time"
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

// TestFailedRetuneKeepsItsReason: a retune that cannot recommend is
// counted and its reason is served in the stats — an operator seeing
// retune_errors climb must be able to tell why without a debugger.
func TestFailedRetuneKeepsItsReason(t *testing.T) {
	cfg := testConfig(TenantConfig{Name: "alpha", APIKey: "alpha-key", Families: []string{"NREF2J"}})
	cfg.Tuning = true
	g, _ := newTestGateway(t, cfg)

	ten := g.tenants["alpha"]
	ten.mu.Lock()
	ten.recentSQL = append(ten.recentSQL, "SELECT FROM WHERE")
	ten.mu.Unlock()
	g.tunerP.Load().retune()

	s := g.Stats()
	if s.Retunes != 0 || s.RetuneErrs != 1 || s.RetuneLastError == "" {
		t.Errorf("retunes %d, retune errors %d, last error %q; want 0, 1 and a reason", s.Retunes, s.RetuneErrs, s.RetuneLastError)
	}
}

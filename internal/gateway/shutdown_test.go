// Shutdown ordering: admission closes, every accepted query completes
// and lands its audit record, the tuner and autoscaler stop — and only
// then may the listener close. The invariant under test: zero accepted
// queries dropped by a drain.
package gateway

import (
	"context"
	"net/http"
	"testing"
	"time"
)

func TestShutdownDrainsAcceptedQueries(t *testing.T) {
	tight := TenantConfig{
		Name: "tight", APIKey: "tight-key", Families: []string{"NREF2J"},
		MaxQueue: 8, MaxConcurrency: 2, Window: 8,
	}
	cfg := testConfig(tight)
	cfg.GlobalInflight = 1
	g, ts := newTestGateway(t, cfg)
	sqlText := poolQuery(t, ts.URL, "tight-key", "NREF2J", 1)

	// Hold the global gate so accepted queries pile up un-executed —
	// the worst case a drain must survive.
	g.gate <- struct{}{}
	const held = 4
	statuses := make(chan int, held)
	for i := 0; i < held; i++ {
		go func(seq int64) {
			status, _, _ := postQuery(t, ts.URL, "tight-key", seq, "NREF2J", sqlText)
			statuses <- status
		}(int64(i))
	}
	waitUntil(t, func() bool { return g.accepted.Load() == held })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- g.Shutdown(ctx)
	}()
	waitUntil(t, func() bool {
		g.acceptMu.RLock()
		defer g.acceptMu.RUnlock()
		return g.draining
	})

	// Draining: new arrivals bounce with 503, audited.
	status, body, _ := postQuery(t, ts.URL, "tight-key", 99, "NREF2J", sqlText)
	if status != http.StatusServiceUnavailable || body["error"] != ReasonDraining {
		t.Fatalf("query during drain: status %d body %v, want 503 %s", status, body, ReasonDraining)
	}

	// Release the engine; the drain must now complete.
	<-g.gate
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < held; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("held query got status %d after drain, want 200", st)
		}
	}

	// Zero dropped-after-accept: every accepted query has exactly one
	// completion record on the audit log.
	var accepts int64
	for _, rec := range g.AuditRecords() {
		if rec.Decision != DecisionAccept {
			continue
		}
		accepts++
		if rec.Status != 200 {
			t.Errorf("accepted seq %d finished with status %d", rec.Seq, rec.Status)
		}
	}
	if accepts != held {
		t.Errorf("%d accept records, want %d (accepted %d)", accepts, held, g.accepted.Load())
	}
	s := g.Stats()
	if s.Inflight != 0 {
		t.Errorf("inflight %d after shutdown", s.Inflight)
	}
	if s.Draining != true || s.Ready {
		t.Errorf("post-shutdown state: draining=%v ready=%v", s.Draining, s.Ready)
	}

	// The drain record for the bounced arrival is on the log too.
	rec := lastAudit(t, g, func(r AuditRecord) bool { return r.Reason == ReasonDraining })
	if rec.Seq != 99 || rec.Status != 503 {
		t.Errorf("draining audit %+v", rec)
	}

	// Shutdown is idempotent.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestShutdownBeforeLoadCompletes exercises the loader/drain race: a
// shutdown that begins while the catalog is still loading must win —
// the loader may not start the tuner afterwards, and the gateway must
// never report ready.
func TestShutdownBeforeLoadCompletes(t *testing.T) {
	release := make(chan struct{})
	shared := sharedBackend(t)
	cfg := testConfig()
	cfg.Tuning = true
	g, err := New(Options{
		Config: cfg,
		BackendFunc: func(Config) (*Backend, error) {
			<-release
			return shared, nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during load: %v", err)
	}
	close(release)
	if err := g.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if g.Ready() {
		t.Error("gateway reports ready after a pre-load shutdown")
	}
	if g.tunerP.Load() != nil {
		t.Error("the loader started the tuner after a pre-load shutdown")
	}
}

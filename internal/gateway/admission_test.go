// Admission on the handler goroutine: each tenant's two semaphores are
// taken in arrival order, every wait listens to the client, and the
// gateway keeps no goroutine of its own per tenant.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// holdGate occupies the global gate until release runs or the test ends,
// so a failing test stops rather than hangs on a parked query.
func holdGate(t *testing.T, g *Gateway) (release func()) {
	t.Helper()
	g.gate <- struct{}{}
	var once sync.Once
	release = func() { once.Do(func() { <-g.gate }) }
	t.Cleanup(release)
	return release
}

// TestClientGoneWhileWaiting: a client that hangs up while its accepted
// query waits for the gate costs one 499 client-gone audit record and
// nothing else — the admission slot and the drain ticket come back
// without the gate ever opening, so Shutdown drains at once.
func TestClientGoneWhileWaiting(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalInflight = 1
	g, ts := newTestGateway(t, cfg)
	sqlText := poolQuery(t, ts.URL, "alpha-key", "NREF2J", 0)
	holdGate(t, g)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, err := json.Marshal(map[string]any{"seq": 7, "family": "NREF2J", "sql": sqlText})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "alpha-key")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitUntil(t, func() bool { return g.accepted.Load() == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled request got a response")
	}

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := g.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown with the gate held: %v", err)
	}
	rec := lastAudit(t, g, func(r AuditRecord) bool { return r.Decision == DecisionAccept })
	if rec.Seq != 7 || rec.Tenant != "alpha" || rec.Reason != ReasonClientGone || rec.Status != 499 {
		t.Errorf("audit record %+v, want an accepted 499 %s for seq 7", rec, ReasonClientGone)
	}
	alpha := g.tenants["alpha"]
	if n := len(alpha.slots); n != 0 {
		t.Errorf("%d admission slots still held", n)
	}
	if s := alpha.snapshot(); s.Completed != 1 || s.Errored != 1 {
		t.Errorf("tenant accounting completed %d errored %d, want 1/1", s.Completed, s.Errored)
	}
}

// TestRunSlotsAreFIFO: queries waiting for a tenant's run slot start in
// the order they arrived. One run slot and one gate slot serialize
// execution, so the accept records' completion order is the start order.
func TestRunSlotsAreFIFO(t *testing.T) {
	solo := TenantConfig{
		Name: "solo", APIKey: "solo-key", Families: []string{"NREF2J"},
		MaxQueue: 4, MaxConcurrency: 1, Window: 8,
	}
	cfg := testConfig(solo)
	cfg.GlobalInflight = 1
	g, ts := newTestGateway(t, cfg)
	sqlText := poolQuery(t, ts.URL, "solo-key", "NREF2J", 0)
	release := holdGate(t, g)

	const n = 4
	st := g.tenants["solo"]
	statuses := make(chan int, n)
	for seq := int64(0); seq < n; seq++ {
		go func() {
			status, _, _ := postQuery(t, ts.URL, "solo-key", seq, "NREF2J", sqlText)
			statuses <- status
		}()
		// Seq 0 takes the run slot and parks at the gate; each later seq
		// waits for the run slot behind the ones before it.
		waitUntil(t, func() bool { return len(st.slots) == int(seq)+1 && g.queueDepth() == float64(seq) })
	}
	release()
	for i := 0; i < n; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("status %d, want 200", status)
		}
	}
	var order []int64
	for _, rec := range g.AuditRecords() {
		if rec.Decision == DecisionAccept {
			order = append(order, rec.Seq)
		}
	}
	if got := fmt.Sprint(order); got != "[0 1 2 3]" {
		t.Errorf("accept records in order %s, want [0 1 2 3]", got)
	}
}

// TestNoGoroutinePerTenant: a ready gateway with tuning and sharding off
// runs no goroutine of its own — queries run on their handlers — and
// leaves none behind after Shutdown.
func TestNoGoroutinePerTenant(t *testing.T) {
	shared := sharedBackend(t)
	base := runtime.NumGoroutine()
	g, err := New(Options{Config: testConfig(), Backend: shared})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	// The loader and the drain waiter exit just after they signal, so
	// poll briefly. An earlier test's goroutine may exit meanwhile, so
	// the check is that none were added.
	settled := func(when string) {
		t.Helper()
		delta := 0
		for i := 0; i < 400; i++ {
			if delta = runtime.NumGoroutine() - base; delta <= 0 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("%s: %d goroutines above the baseline, want 0", when, delta)
	}
	settled("ready")
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	settled("after Shutdown")
}

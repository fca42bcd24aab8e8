// Redflag conformance: every rejection path must answer with the right
// HTTP status, the right JSON error, and an audit record carrying the
// right reason. One test per path, all over httptest (no real sockets).
package gateway

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"
)

// expectReject asserts the response and the audit trail for one
// rejected request.
func expectReject(t *testing.T, g *Gateway, status int, body map[string]any, wantStatus int, wantReason, wantTenant string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status %d, want %d (body %v)", status, wantStatus, body)
	}
	if body["error"] != wantReason {
		t.Fatalf("error %v, want %q", body["error"], wantReason)
	}
	rec := lastAudit(t, g, func(r AuditRecord) bool { return r.Reason == wantReason })
	if rec.Decision != DecisionReject {
		t.Errorf("audit decision %q, want reject", rec.Decision)
	}
	if rec.Status != wantStatus {
		t.Errorf("audit status %d, want %d", rec.Status, wantStatus)
	}
	if rec.Tenant != wantTenant {
		t.Errorf("audit tenant %q, want %q", rec.Tenant, wantTenant)
	}
}

func TestRedflagBadAPIKey(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	status, body, _ := postQuery(t, ts.URL, "who-dis", 0, "NREF2J", "SELECT p_name FROM protein")
	expectReject(t, g, status, body, http.StatusUnauthorized, ReasonBadAPIKey, "-")

	// A missing key is the same violation.
	status, body, _ = postQuery(t, ts.URL, "", 0, "NREF2J", "SELECT p_name FROM protein")
	if status != http.StatusUnauthorized || body["error"] != ReasonBadAPIKey {
		t.Fatalf("missing key: status %d body %v", status, body)
	}
}

func TestRedflagFamilyCapabilityViolation(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	// alpha holds NREF2J only; asking for NREF3J is a capability violation.
	status, body, _ := postQuery(t, ts.URL, "alpha-key", 5, "NREF3J", "SELECT p_name FROM protein")
	expectReject(t, g, status, body, http.StatusForbidden, ReasonCapability, "alpha")

	// The pool endpoint enforces the same grant.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/pool?family=NREF3J", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "alpha-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("pool across grant: status %d, want 403", resp.StatusCode)
	}
}

func TestRedflagRelationCapabilityViolation(t *testing.T) {
	locked := TenantConfig{
		Name: "locked", APIKey: "locked-key", Families: []string{"NREF2J"},
		Relations: []string{"protein"}, MaxQueue: 4, MaxConcurrency: 1, Window: 8,
	}
	g, ts := newTestGateway(t, testConfig(locked))
	// Inside the allowlist: fine.
	status, body, _ := postQuery(t, ts.URL, "locked-key", 0, "NREF2J", "SELECT p_name FROM protein")
	if status != http.StatusOK {
		t.Fatalf("allowed relation: status %d body %v", status, body)
	}
	// taxonomy is outside the allowlist.
	status, body, _ = postQuery(t, ts.URL, "locked-key", 1, "NREF2J", "SELECT nref_id FROM taxonomy")
	expectReject(t, g, status, body, http.StatusForbidden, ReasonCapability, "locked")
}

func TestRedflagMalformedSQL(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	for _, bad := range []string{
		"SELECT FROM WHERE",
		"SELECT p_name FROM no_such_table",
		"SELECT no_such_col FROM protein",
	} {
		status, body, _ := postQuery(t, ts.URL, "alpha-key", 7, "NREF2J", bad)
		if status != http.StatusBadRequest || body["error"] != ReasonMalformedSQL {
			t.Errorf("%q: status %d body %v, want 400 %s", bad, status, body, ReasonMalformedSQL)
		}
	}
	rec := lastAudit(t, g, func(r AuditRecord) bool { return r.Reason == ReasonMalformedSQL })
	if rec.Status != 400 || rec.Tenant != "alpha" {
		t.Errorf("malformed-sql audit %+v", rec)
	}
}

func TestRedflagReadOnlyEnforcement(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	status, body, _ := postQuery(t, ts.URL, "alpha-key", 9, "NREF2J",
		"INSERT INTO protein VALUES ('NF1', 'p', 1, 'SEQ', 3)")
	expectReject(t, g, status, body, http.StatusForbidden, ReasonReadOnly, "alpha")
}

func TestRedflagMalformedEnvelope(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	status, body, _ := postRaw(t, ts.URL, "alpha-key", []byte("{not json"))
	expectReject(t, g, status, body, http.StatusBadRequest, ReasonBadRequest, "alpha")

	// Wrong method is the same reason.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "alpha-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /v1/query: status %d, want 400", resp.StatusCode)
	}
}

func TestRedflagOversizedBody(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 256
	g, ts := newTestGateway(t, cfg)
	huge := append([]byte(`{"seq":1,"family":"NREF2J","sql":"SELECT p_name FROM protein WHERE p_name = '`),
		bytes.Repeat([]byte("x"), 1024)...)
	huge = append(huge, []byte(`'"}`)...)
	status, body, _ := postRaw(t, ts.URL, "alpha-key", huge)
	expectReject(t, g, status, body, http.StatusRequestEntityTooLarge, ReasonOversized, "alpha")
}

// TestRedflagQueueFullBackpressure constructs queue saturation
// deterministically: the test occupies the global gate so the tenant's
// one running query parks there, a second waits for the run slot, and
// the next arrival must bounce with 429 + Retry-After.
func TestRedflagQueueFullBackpressure(t *testing.T) {
	tight := TenantConfig{
		Name: "tight", APIKey: "tight-key", Families: []string{"NREF2J"},
		MaxQueue: 1, MaxConcurrency: 1, Window: 8,
	}
	cfg := testConfig(tight)
	cfg.GlobalInflight = 1
	g, ts := newTestGateway(t, cfg)
	sqlText := poolQuery(t, ts.URL, "tight-key", "NREF2J", 0)

	// Occupy the global gate: a query can take its run slot but not execute.
	g.gate <- struct{}{}
	type res struct {
		status int
		body   map[string]any
	}
	results := make(chan res, 2)
	post := func(seq int64) {
		status, body, _ := postQuery(t, ts.URL, "tight-key", seq, "NREF2J", sqlText)
		results <- res{status, body}
	}
	go post(0)
	// Wait until query 0 holds the run slot (parked at the gate), then
	// fill the queue with query 1.
	waitUntil(t, func() bool { return len(g.tenants["tight"].run) == 1 })
	go post(1)
	waitUntil(t, func() bool { return g.queueDepth() == 1 })

	// Queue full, run slot busy: the third arrival must bounce.
	status, body, hdr := postQuery(t, ts.URL, "tight-key", 2, "NREF2J", sqlText)
	expectReject(t, g, status, body, http.StatusTooManyRequests, ReasonQueueFull, "tight")
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Release the gate; both held queries must complete.
	<-g.gate
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("held query: status %d body %v", r.status, r.body)
		}
	}
	s := g.Stats()
	if s.Accepted != 2 || s.Rejected != 1 {
		t.Errorf("accepted %d rejected %d, want 2/1", s.Accepted, s.Rejected)
	}
}

// TestRedflagOverCapConcurrency floods one tight tenant far beyond its
// queue + concurrency caps: the gateway must stay bounded — every
// response is either a success or a queue-full 429, and at no point do
// more than GlobalInflight queries execute.
func TestRedflagOverCapConcurrency(t *testing.T) {
	tight := TenantConfig{
		Name: "tight", APIKey: "tight-key", Families: []string{"NREF2J"},
		MaxQueue: 2, MaxConcurrency: 1, Window: 8,
	}
	cfg := testConfig(tight)
	cfg.GlobalInflight = 1
	g, ts := newTestGateway(t, cfg)
	sqlText := poolQuery(t, ts.URL, "tight-key", "NREF2J", 2)

	const flood = 12
	statuses := make(chan int, flood)
	for i := 0; i < flood; i++ {
		go func(seq int64) {
			status, _, _ := postQuery(t, ts.URL, "tight-key", seq, "NREF2J", sqlText)
			statuses <- status
		}(int64(i))
	}
	ok, rejected := 0, 0
	for i := 0; i < flood; i++ {
		switch st := <-statuses; st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected status %d under flood", st)
		}
	}
	if ok == 0 {
		t.Error("flood: nothing admitted")
	}
	if ok+rejected != flood {
		t.Errorf("flood: %d ok + %d rejected != %d", ok, rejected, flood)
	}
	s := g.Stats()
	if s.Inflight != 0 {
		t.Errorf("inflight %d after flood settled", s.Inflight)
	}
	if got := s.Tenants[0].Rejected[ReasonQueueFull]; got != int64(rejected) {
		t.Errorf("tenant queue-full count %d, want %d", got, rejected)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestRedflagExecutorPanic: a panic inside the executor must cost the
// client a 500 and nothing else — one execution-error audit record, the
// gate slot and the drain ticket returned, and the tenant still serving.
func TestRedflagExecutorPanic(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	alpha := g.tenants["alpha"]
	// A nil analyzed query makes the optimizer dereference nil.
	if reason := g.admit(alpha, "NREF2J"); reason != "" {
		t.Fatalf("admit rejected: %s", reason)
	}
	res, m, err := g.execute(context.Background(), alpha, nil)
	if err == nil {
		t.Fatal("a panicking query must return an execution error")
	}
	g.finish(alpha, 41, "NREF2J", "SELECT poison", res, m, err)
	rec := lastAudit(t, g, func(r AuditRecord) bool { return r.Seq == 41 && r.Tenant == "alpha" })
	if rec.Status != http.StatusInternalServerError || rec.Reason != "execution-error" || rec.Decision != DecisionAccept {
		t.Errorf("audit record %+v, want an accepted 500 execution-error", rec)
	}
	if n := len(g.gate); n != 0 {
		t.Errorf("%d gate slots still held after the panic", n)
	}
	if n := len(alpha.run) + len(alpha.slots); n != 0 {
		t.Errorf("%d tenant slots still held after the panic", n)
	}

	sqlText := poolQuery(t, ts.URL, "alpha-key", "NREF2J", 0)
	if status, body, _ := postQuery(t, ts.URL, "alpha-key", 42, "NREF2J", sqlText); status != http.StatusOK {
		t.Fatalf("query after the panic: status %d body %v", status, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain after the panic: %v", err)
	}
}

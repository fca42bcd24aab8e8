// Greenflag conformance: everything a well-behaved tenant does must
// succeed — each granted family, concurrent mixed-tenant load, and the
// readiness lifecycle.
package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGreenflagEveryFamilyPerTenant runs one pool query from every
// family each tenant is granted and checks the success envelope.
func TestGreenflagEveryFamilyPerTenant(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	seq := int64(0)
	for _, tc := range threeTenants() {
		for _, fam := range tc.Families {
			sqlText := poolQuery(t, ts.URL, tc.APIKey, fam, 0)
			status, body, _ := postQuery(t, ts.URL, tc.APIKey, seq, fam, sqlText)
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d, body %v", tc.Name, fam, status, body)
			}
			if body["tenant"] != tc.Name {
				t.Errorf("%s/%s: tenant %v in response", tc.Name, fam, body["tenant"])
			}
			if body["family"] != fam {
				t.Errorf("%s/%s: family %v in response", tc.Name, fam, body["family"])
			}
			sim, ok := body["sim_seconds"].(float64)
			if !ok || sim < 0 {
				t.Errorf("%s/%s: bad sim_seconds %v", tc.Name, fam, body["sim_seconds"])
			}
			rec := lastAudit(t, g, func(r AuditRecord) bool { return r.Seq == seq })
			if rec.Decision != DecisionAccept || rec.Status != 200 || rec.Tenant != tc.Name {
				t.Errorf("%s/%s: audit %+v", tc.Name, fam, rec)
			}
			seq++
		}
	}
	s := g.Stats()
	if s.Accepted != seq {
		t.Errorf("accepted %d, want %d", s.Accepted, seq)
	}
	if s.Rejected != 0 {
		t.Errorf("rejected %d, want 0", s.Rejected)
	}
}

// TestGreenflagConcurrentMixedTenants drives all tenants at once and
// expects every request to succeed (caps exceed the offered load).
func TestGreenflagConcurrentMixedTenants(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	tenants := threeTenants()
	const perTenant = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*perTenant)
	for ti, tc := range tenants {
		for k := 0; k < perTenant; k++ {
			wg.Add(1)
			go func(ti, k int, tc TenantConfig) {
				defer wg.Done()
				fam := tc.Families[k%len(tc.Families)]
				sqlText := poolQuery(t, ts.URL, tc.APIKey, fam, k)
				seq := int64(ti*perTenant + k)
				status, body, _ := postQuery(t, ts.URL, tc.APIKey, seq, fam, sqlText)
				if status != http.StatusOK {
					errs <- fmt.Errorf("%s seq %d: status %d body %v", tc.Name, seq, status, body)
				}
			}(ti, k, tc)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := g.Stats()
	want := int64(len(tenants) * perTenant)
	if s.Accepted != want || s.Rejected != 0 {
		t.Errorf("accepted %d rejected %d, want %d/0", s.Accepted, s.Rejected, want)
	}
	for _, snap := range s.Tenants {
		if snap.Completed != perTenant {
			t.Errorf("tenant %s completed %d, want %d", snap.Tenant, snap.Completed, perTenant)
		}
		if snap.GoalLevel < 0 || snap.GoalLevel > 1 {
			t.Errorf("tenant %s goal level %v out of range", snap.Tenant, snap.GoalLevel)
		}
	}
}

// TestGreenflagReadyzFlipsOnlyAfterLoad gates the backend build on a
// channel: before release the gateway must refuse queries with
// not-ready and report 503 on /readyz; after release both flip.
func TestGreenflagReadyzFlipsOnlyAfterLoad(t *testing.T) {
	release := make(chan struct{})
	shared := sharedBackend(t)
	g, err := New(Options{
		Config: testConfig(),
		BackendFunc: func(Config) (*Backend, error) {
			<-release
			return shared, nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Shutdown(sctx)
	})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-load /readyz status %d, want 503", resp.StatusCode)
	}
	status, body, _ := postQuery(t, ts.URL, "alpha-key", 0, "NREF2J", "SELECT p_name FROM protein")
	if status != http.StatusServiceUnavailable || body["error"] != ReasonNotReady {
		t.Fatalf("pre-load query: status %d body %v, want 503 %s", status, body, ReasonNotReady)
	}
	rec := lastAudit(t, g, func(r AuditRecord) bool { return r.Reason == ReasonNotReady })
	if rec.Tenant != "alpha" || rec.Status != 503 {
		t.Errorf("not-ready audit %+v", rec)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-load /readyz status %d, want 200", resp.StatusCode)
	}
	sqlText := poolQuery(t, ts.URL, "alpha-key", "NREF2J", 0)
	status, body, _ = postQuery(t, ts.URL, "alpha-key", 1, "NREF2J", sqlText)
	if status != http.StatusOK {
		t.Fatalf("post-load query: status %d body %v", status, body)
	}

	// /healthz is alive through the whole lifecycle.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
}

// TestGreenflagMetricsAndStats sanity-checks the observability surface
// after a few queries.
func TestGreenflagMetricsAndStats(t *testing.T) {
	g, ts := newTestGateway(t, testConfig())
	sqlText := poolQuery(t, ts.URL, "alpha-key", "NREF2J", 1)
	for i := int64(0); i < 2; i++ {
		if status, body, _ := postQuery(t, ts.URL, "alpha-key", i, "NREF2J", sqlText); status != http.StatusOK {
			t.Fatalf("query: status %d body %v", status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		"gateway_ready 1",
		"gateway_accepted_total 2",
		"gateway_retune_errors_total 0",
		`gateway_tenant_admitted_total{tenant="alpha"} 2`,
		`gateway_tenant_goal_level{tenant="alpha"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	s := g.Stats()
	if len(s.Tenants) != 3 || s.Tenants[0].Tenant != "alpha" {
		t.Errorf("stats tenants %+v", s.Tenants)
	}
}

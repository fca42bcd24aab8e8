package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The suites share one loaded backend (engine + pools at a tiny scale):
// loading dominates test wall time, and every gateway under test layers
// its own tenants, queues and counters on top, so reuse is safe — the
// engine's read path is concurrent by design.
var (
	backendOnce sync.Once
	backendVal  *Backend
	backendErr  error
)

// testScale keeps per-query simulated work small enough for CI's single
// core (matches the autopilot suite's tiny fixtures).
const testScale = 0.0001

func backendConfig() Config {
	c := Config{
		System: "B",
		Scale:  testScale,
		Seed:   7,
		Pool:   12,
		Tenants: []TenantConfig{
			{Name: "seed", APIKey: "seed-key", Families: []string{"NREF2J", "NREF3J"}},
		},
	}
	c.setDefaults()
	return c
}

func sharedBackend(t *testing.T) *Backend {
	t.Helper()
	backendOnce.Do(func() {
		backendVal, backendErr = BuildBackend(backendConfig())
	})
	if backendErr != nil {
		t.Fatalf("build backend: %v", backendErr)
	}
	return backendVal
}

// threeTenants is the default test topology: two single-family tenants
// plus one with both families.
func threeTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "alpha", APIKey: "alpha-key", Families: []string{"NREF2J"}, MaxQueue: 32, MaxConcurrency: 2, Window: 8},
		{Name: "beta", APIKey: "beta-key", Families: []string{"NREF3J"}, MaxQueue: 32, MaxConcurrency: 2, Window: 8},
		{Name: "gamma", APIKey: "gamma-key", Families: []string{"NREF2J", "NREF3J"}, MaxQueue: 32, MaxConcurrency: 2, Window: 8},
	}
}

func testConfig(tenants ...TenantConfig) Config {
	if len(tenants) == 0 {
		tenants = threeTenants()
	}
	return Config{
		System:  "B",
		Scale:   testScale,
		Seed:    7,
		Pool:    12,
		Tenants: tenants,
	}
}

// newTestGateway serves cfg over the shared backend on an httptest
// server (in-process transport, no real sockets) and tears both down in
// the right order: gateway drain first, listener second.
func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	return newTestGatewayOn(t, cfg, sharedBackend(t))
}

// newTestGatewayOn is newTestGateway over a backend of the caller's.
func newTestGatewayOn(t *testing.T, cfg Config, b *Backend) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(Options{Config: cfg, Backend: b})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := g.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return g, ts
}

// postQuery issues one /v1/query request and decodes the JSON body.
func postQuery(t *testing.T, baseURL, key string, seq int64, family, sqlText string) (int, map[string]any, http.Header) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"seq": seq, "family": family, "sql": sqlText})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return postRaw(t, baseURL, key, body)
}

func postRaw(t *testing.T, baseURL, key string, body []byte) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	out := make(map[string]any)
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return resp.StatusCode, out, resp.Header
}

// poolQuery fetches one SQL text from a tenant's pool for a family.
func poolQuery(t *testing.T, baseURL, key, family string, idx int) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/pool?family="+family, nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pool %s: status %d", family, resp.StatusCode)
	}
	var out struct {
		Queries []string `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode pool: %v", err)
	}
	if len(out.Queries) == 0 {
		t.Fatalf("pool %s is empty", family)
	}
	return out.Queries[idx%len(out.Queries)]
}

// lastAudit returns the most recent audit record matching the filter.
func lastAudit(t *testing.T, g *Gateway, match func(AuditRecord) bool) AuditRecord {
	t.Helper()
	recs := g.AuditRecords()
	for i := len(recs) - 1; i >= 0; i-- {
		if match(recs[i]) {
			return recs[i]
		}
	}
	t.Fatalf("no matching audit record among %d", len(recs))
	return AuditRecord{}
}

// snapshot copies the ring in arrival order.
func (a *auditor) snapshot() []AuditRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditRecord, 0, len(a.records))
	for i := 0; i < len(a.records); i++ {
		out = append(out, a.records[(a.head+i)%len(a.records)])
	}
	return out
}

// AuditRecords returns every retained audit record in arrival order.
func (g *Gateway) AuditRecords() []AuditRecord { return g.audit.snapshot() }

// TestValidateRejects is the config's outer edge: each row breaks one
// field of an otherwise valid config, and Normalize (defaults, then
// Validate, as LoadConfig runs them) must refuse it by name.
func TestValidateRejects(t *testing.T) {
	if cfg := testConfig(); cfg.Normalize() != nil {
		t.Fatal("the unedited config does not normalize")
	}
	for _, c := range []struct {
		what string
		edit func(c *Config)
		want string
	}{
		{"negative scale", func(c *Config) { c.Scale = -1 }, "scale must not be negative"},
		{"negative pool", func(c *Config) { c.Pool = -3 }, "pool must not be negative"},
		{"negative timeout", func(c *Config) { c.TimeoutSeconds = -5 }, "timeout_seconds must not be negative"},
		{"negative body limit", func(c *Config) { c.MaxBodyBytes = -1 }, "max_body_bytes must not be negative"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "shards must be non-negative"},
		{"NaN tenant goal", func(c *Config) { c.Tenants[0].Goal = "10:NaN" }, `goal step "10:NaN"`},
	} {
		cfg := testConfig()
		c.edit(&cfg)
		err := cfg.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize = %v, want an error naming %q", c.what, err, c.want)
		}
	}
}

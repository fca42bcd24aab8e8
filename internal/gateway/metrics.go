package gateway

import (
	"net/http"
	"sort"

	"repro/internal/core"
)

// Snapshot is the gateway-wide observability record: global counters
// plus one TenantSnapshot per tenant, in config order.
type Snapshot struct {
	Ready    bool  `json:"ready"`
	Draining bool  `json:"draining"`
	Inflight int64 `json:"inflight"`

	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`

	Retunes int64 `json:"retunes"`
	// RetunesUnchanged counts searches whose recommendation had the
	// serving configuration's structures, so nothing was applied.
	RetunesUnchanged int64 `json:"retunes_unchanged,omitempty"`
	RetuneErrs       int64 `json:"retune_errors,omitempty"`
	// RetuneLastError is why the most recent failed retune failed.
	RetuneLastError string           `json:"retune_last_error,omitempty"`
	AuditKept       int64            `json:"audit_records"`
	AuditLost       int64            `json:"audit_overflow,omitempty"`
	Sharding        *ShardSnapshot   `json:"sharding,omitempty"`
	Tenants         []TenantSnapshot `json:"tenants"`
}

// ShardSnapshot reports the shard cluster and autoscaler state (absent
// when the gateway serves unsharded).
type ShardSnapshot struct {
	Shards    int    `json:"shards"`
	Pool      int    `json:"pool"`
	Mode      string `json:"mode"`
	Queries   int64  `json:"queries"`
	Fallbacks int64  `json:"fallbacks"`
	Timeouts  int64  `json:"timeouts,omitempty"`
	Reshards  int64  `json:"reshards"`

	Autoscale        bool             `json:"autoscale,omitempty"`
	AutoscaleDryRun  bool             `json:"autoscale_dry_run,omitempty"`
	AutoscaleWindows int64            `json:"autoscale_windows,omitempty"`
	AutoscaleActions map[string]int64 `json:"autoscale_actions,omitempty"`
}

// Stats assembles the live snapshot.
func (g *Gateway) Stats() Snapshot {
	s := Snapshot{
		Ready:    g.Ready(),
		Inflight: int64(len(g.gate)),
		Accepted: g.accepted.Load(),
		Rejected: g.rejected.Load(),
	}
	g.acceptMu.RLock()
	s.Draining = g.draining
	g.acceptMu.RUnlock()
	if tn := g.tunerP.Load(); tn != nil {
		s.Retunes = tn.applied.Load()
		s.RetunesUnchanged = tn.unchanged.Load()
		s.RetuneErrs = tn.failed.Load()
		if e := tn.lastErr.Load(); e != nil {
			s.RetuneLastError = *e
		}
	}
	g.audit.mu.Lock()
	s.AuditKept = int64(len(g.audit.records))
	s.AuditLost = g.audit.dropped
	g.audit.mu.Unlock()
	if b := g.backend.Load(); b != nil && b.Cluster != nil {
		cl := b.Cluster
		st := cl.Stats()
		sh := &ShardSnapshot{
			Shards:    cl.Shards(),
			Pool:      cl.Pool(),
			Mode:      string(cl.Spec().Mode),
			Queries:   st.Queries,
			Fallbacks: st.Fallbacks,
			Timeouts:  st.Timeouts,
			Reshards:  st.Reshards,
		}
		if as := g.autoP.Load(); as != nil {
			sh.Autoscale = true
			sh.AutoscaleDryRun = g.cfg.AutoscaleDryRun
			sh.AutoscaleWindows = as.windows.Load()
			sh.AutoscaleActions = as.upd.Actions()
		}
		s.Sharding = sh
	}
	s.Tenants = make([]TenantSnapshot, 0, len(g.tenantOrder))
	for _, name := range g.tenantOrder {
		s.Tenants = append(s.Tenants, g.tenants[name].snapshot())
	}
	return s
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	respond(w, http.StatusOK, g.Stats())
}

// handleMetrics renders the Prometheus text exposition. Tenants iterate
// in config order and reason keys are sorted, so scrapes are stable.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := g.Stats()
	var p core.Prom
	one := func(name, typ, help string, v float64) {
		p.Family(name, typ, help)
		p.Sample(name, v)
	}
	ready := 0.0
	if s.Ready {
		ready = 1
	}
	one("gateway_ready", "gauge", "1 once the catalog is loaded and the gateway accepts queries.", ready)
	one("gateway_inflight", "gauge", "Queries executing on the engine right now.", float64(s.Inflight))
	one("gateway_accepted_total", "counter", "Queries admitted across all tenants.", float64(s.Accepted))
	one("gateway_rejected_total", "counter", "Requests rejected across all tenants and stages.", float64(s.Rejected))
	one("gateway_retunes_total", "counter", "Goal-triggered configuration transitions applied.", float64(s.Retunes))
	one("gateway_retunes_unchanged_total", "counter", "Retunes whose recommendation equalled the serving configuration: counted, not applied.", float64(s.RetunesUnchanged))
	one("gateway_retune_errors_total", "counter", "Retunes that failed to recommend or to apply a configuration.", float64(s.RetuneErrs))
	if sh := s.Sharding; sh != nil {
		one("gateway_shards", "gauge", "Current shard count.", float64(sh.Shards))
		one("gateway_shard_pool", "gauge", "Current partition worker-pool width.", float64(sh.Pool))
		one("gateway_reshards_total", "counter", "Live topology changes applied.", float64(sh.Reshards))
		p.Family("gateway_autoscale_actions_total", "counter", "Autoscaler windows by action.")
		for _, a := range sortedKeys(sh.AutoscaleActions) {
			p.Sample("gateway_autoscale_actions_total", float64(sh.AutoscaleActions[a]), "action", a)
		}
	}
	perTenant := func(name, typ, help string, v func(TenantSnapshot) float64) {
		p.Family(name, typ, help)
		for _, t := range s.Tenants {
			p.Sample(name, v(t), "tenant", t.Tenant)
		}
	}
	perTenant("gateway_tenant_admitted_total", "counter", "Queries admitted per tenant.",
		func(t TenantSnapshot) float64 { return float64(t.Admitted) })
	perTenant("gateway_tenant_completed_total", "counter", "Queries completed per tenant.",
		func(t TenantSnapshot) float64 { return float64(t.Completed) })
	p.Family("gateway_tenant_rejected_total", "counter", "Rejections per tenant by reason.")
	for _, t := range s.Tenants {
		for _, reason := range sortedKeys(t.Rejected) {
			p.Sample("gateway_tenant_rejected_total", float64(t.Rejected[reason]), "tenant", t.Tenant, "reason", reason)
		}
	}
	perTenant("gateway_tenant_goal_level", "gauge", "Cumulative goal satisfaction level in [0,1].",
		func(t TenantSnapshot) float64 { return t.GoalLevel })
	perTenant("gateway_tenant_window_goal_level", "gauge", "Sliding-window goal satisfaction level in [0,1].",
		func(t TenantSnapshot) float64 { return t.WindowGoalLevel })
	perTenant("gateway_tenant_window_p50_seconds", "gauge", "Sliding-window median simulated latency (-1 when among timeouts).",
		func(t TenantSnapshot) float64 { return t.WindowP50 })
	perTenant("gateway_tenant_window_p95_seconds", "gauge", "Sliding-window p95 simulated latency (-1 when among timeouts).",
		func(t TenantSnapshot) float64 { return t.WindowP95 })
	p.Serve(w)
}

// sortedKeys returns a count map's keys in sorted order, so renders of
// the same counters are byte-identical.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

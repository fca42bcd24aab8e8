package gateway

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the gateway-wide observability record: global counters
// plus one TenantSnapshot per tenant, in config order.
type Snapshot struct {
	Ready    bool  `json:"ready"`
	Draining bool  `json:"draining"`
	Inflight int64 `json:"inflight"`

	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`

	Retunes    int64 `json:"retunes"`
	RetuneErrs int64 `json:"retune_errors,omitempty"`
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
			sh.AutoscaleDryRun = as.upd.DryRun
			sh.AutoscaleWindows = as.windows.Load()
			audit := as.upd.Audit()
			if len(audit) > 0 {
				sh.AutoscaleActions = make(map[string]int64, 4)
				for _, rec := range audit {
					sh.AutoscaleActions[rec.Action]++
				}
			}
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
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// conflint:ignore best-effort response write; the client owns the socket
	enc.Encode(g.Stats())
}

// handleMetrics renders the Prometheus text exposition. Tenants iterate
// in config order and reason keys are sorted, so scrapes are stable.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := g.Stats()
	var b strings.Builder
	gauge := func(name string, v float64) {
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	b.WriteString("# HELP gateway_ready 1 once the catalog is loaded and the gateway accepts queries.\n# TYPE gateway_ready gauge\n")
	gauge("gateway_ready", boolGauge(s.Ready))
	b.WriteString("# HELP gateway_inflight Queries executing on the engine right now.\n# TYPE gateway_inflight gauge\n")
	gauge("gateway_inflight", float64(s.Inflight))
	b.WriteString("# HELP gateway_accepted_total Queries admitted across all tenants.\n# TYPE gateway_accepted_total counter\n")
	gauge("gateway_accepted_total", float64(s.Accepted))
	b.WriteString("# HELP gateway_rejected_total Requests rejected across all tenants and stages.\n# TYPE gateway_rejected_total counter\n")
	gauge("gateway_rejected_total", float64(s.Rejected))
	b.WriteString("# HELP gateway_retunes_total Goal-triggered configuration transitions applied.\n# TYPE gateway_retunes_total counter\n")
	gauge("gateway_retunes_total", float64(s.Retunes))
	b.WriteString("# HELP gateway_retune_errors_total Retunes that failed to recommend or to apply a configuration.\n# TYPE gateway_retune_errors_total counter\n")
	gauge("gateway_retune_errors_total", float64(s.RetuneErrs))
	if s.Sharding != nil {
		b.WriteString("# HELP gateway_shards Current shard count.\n# TYPE gateway_shards gauge\n")
		gauge("gateway_shards", float64(s.Sharding.Shards))
		b.WriteString("# HELP gateway_shard_pool Current partition worker-pool width.\n# TYPE gateway_shard_pool gauge\n")
		gauge("gateway_shard_pool", float64(s.Sharding.Pool))
		b.WriteString("# HELP gateway_reshards_total Live topology changes applied.\n# TYPE gateway_reshards_total counter\n")
		gauge("gateway_reshards_total", float64(s.Sharding.Reshards))
		b.WriteString("# HELP gateway_autoscale_actions_total Autoscaler audit records by action.\n# TYPE gateway_autoscale_actions_total counter\n")
		actions := make([]string, 0, len(s.Sharding.AutoscaleActions))
		for a := range s.Sharding.AutoscaleActions {
			actions = append(actions, a)
		}
		sort.Strings(actions)
		for _, a := range actions {
			gauge("gateway_autoscale_actions_total{action=\""+a+"\"}", float64(s.Sharding.AutoscaleActions[a]))
		}
	}

	b.WriteString("# HELP gateway_tenant_admitted_total Queries admitted per tenant.\n# TYPE gateway_tenant_admitted_total counter\n")
	for _, t := range s.Tenants {
		gauge("gateway_tenant_admitted_total{tenant=\""+t.Tenant+"\"}", float64(t.Admitted))
	}
	b.WriteString("# HELP gateway_tenant_completed_total Queries completed per tenant.\n# TYPE gateway_tenant_completed_total counter\n")
	for _, t := range s.Tenants {
		gauge("gateway_tenant_completed_total{tenant=\""+t.Tenant+"\"}", float64(t.Completed))
	}
	b.WriteString("# HELP gateway_tenant_rejected_total Rejections per tenant by reason.\n# TYPE gateway_tenant_rejected_total counter\n")
	for _, t := range s.Tenants {
		reasons := make([]string, 0, len(t.Rejected))
		for reason := range t.Rejected {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			gauge("gateway_tenant_rejected_total{tenant=\""+t.Tenant+"\",reason=\""+reason+"\"}", float64(t.Rejected[reason]))
		}
	}
	b.WriteString("# HELP gateway_tenant_goal_level Cumulative goal satisfaction level in [0,1].\n# TYPE gateway_tenant_goal_level gauge\n")
	for _, t := range s.Tenants {
		gauge("gateway_tenant_goal_level{tenant=\""+t.Tenant+"\"}", t.GoalLevel)
	}
	b.WriteString("# HELP gateway_tenant_window_goal_level Sliding-window goal satisfaction level in [0,1].\n# TYPE gateway_tenant_window_goal_level gauge\n")
	for _, t := range s.Tenants {
		gauge("gateway_tenant_window_goal_level{tenant=\""+t.Tenant+"\"}", t.WindowGoalLevel)
	}
	b.WriteString("# HELP gateway_tenant_window_p50_seconds Sliding-window median simulated latency (-1 when among timeouts).\n# TYPE gateway_tenant_window_p50_seconds gauge\n")
	for _, t := range s.Tenants {
		gauge("gateway_tenant_window_p50_seconds{tenant=\""+t.Tenant+"\"}", t.WindowP50)
	}
	b.WriteString("# HELP gateway_tenant_window_p95_seconds Sliding-window p95 simulated latency (-1 when among timeouts).\n# TYPE gateway_tenant_window_p95_seconds gauge\n")
	for _, t := range s.Tenants {
		gauge("gateway_tenant_window_p95_seconds{tenant=\""+t.Tenant+"\"}", t.WindowP95)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// conflint:ignore best-effort response write; the client owns the socket
	w.Write([]byte(b.String()))
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
		var nrej int64
		reasons := make([]string, 0, len(t.Rejected))
		for reason := range t.Rejected {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			nrej += t.Rejected[reason]
		}
		b.WriteString(t.Tenant)
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(t.Admitted, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(t.Completed, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(t.Timeouts, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatInt(nrej, 10))
		b.WriteString("  ")
		b.WriteString(strconv.FormatFloat(t.GoalLevel, 'f', 4, 64))
		b.WriteByte('\n')
		for _, reason := range reasons {
			b.WriteString("  ")
			b.WriteString(t.Tenant)
			b.WriteString(".rejected.")
			b.WriteString(reason)
			b.WriteString(" = ")
			b.WriteString(strconv.FormatInt(t.Rejected[reason], 10))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// finiteOrNeg clamps the CFC's +Inf timeout quantiles to -1 for JSON and
// metrics surfaces.
func finiteOrNeg(x float64) float64 {
	if x > 1e17 {
		return -1
	}
	return x
}

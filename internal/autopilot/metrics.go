package autopilot

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Metrics is the autopilot's observability surface: lock-free counters
// updated from the worker pool as queries complete, plus the most recent
// window report under a mutex. It backs both the periodic text report
// and the daemon's /metrics and /healthz endpoints.
type Metrics struct {
	start time.Time

	QueriesServed    atomic.Int64
	Timeouts         atomic.Int64
	WindowsCompleted atomic.Int64
	GoalViolations   atomic.Int64

	RetunesApplied    atomic.Int64
	RetuneErrors      atomic.Int64
	RetunesInFlight   atomic.Int64
	StructuresBuilt   atomic.Int64
	StructuresDropped atomic.Int64
	RetuneWallMS      atomic.Int64

	mu   sync.Mutex
	last *WindowReport // conflint:guardedby mu (nil before the first window)
}

// NewMetrics starts the uptime clock.
func NewMetrics() *Metrics {
	// conflint:ignore uptime is wall-clock observability; it feeds /metrics and /healthz, never a rendered report
	return &Metrics{start: time.Now()}
}

// ObserveQuery is the core.Runner.OnMeasure hook: one completed query.
func (m *Metrics) ObserveQuery(q core.Measure) {
	m.QueriesServed.Add(1)
	if q.TimedOut {
		m.Timeouts.Add(1)
	}
}

// ObserveWindow records a completed window report.
func (m *Metrics) ObserveWindow(rep WindowReport) {
	m.WindowsCompleted.Add(1)
	if !rep.Satisfied {
		m.GoalViolations.Add(1)
	}
	m.mu.Lock()
	m.last = &rep
	m.mu.Unlock()
}

// Handler serves /metrics (Prometheus text exposition) and /healthz
// (JSON liveness) off this metrics set.
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.serveMetrics)
	mux.HandleFunc("/healthz", m.serveHealth)
	return mux
}

// uptime is the wall-clock seconds since NewMetrics.
func (m *Metrics) uptime() float64 {
	// conflint:ignore uptime is wall-clock observability; it feeds /metrics and /healthz, never a rendered report
	return time.Since(m.start).Seconds()
}

func (m *Metrics) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	var p core.Prom
	one := func(name, typ, help string, v float64) {
		p.Family(name, typ, help)
		p.Sample(name, v)
	}
	count := func(name, help string, c *atomic.Int64) { one(name, "counter", help, float64(c.Load())) }
	one("autopilot_uptime_seconds", "gauge", "Wall-clock seconds since the daemon started.", m.uptime())
	count("autopilot_queries_served_total", "Queries executed.", &m.QueriesServed)
	count("autopilot_query_timeouts_total", "Queries that hit the timeout.", &m.Timeouts)
	count("autopilot_windows_completed_total", "Workload windows graded.", &m.WindowsCompleted)
	count("autopilot_goal_violations_total", "Windows that missed the goal.", &m.GoalViolations)
	count("autopilot_retunes_applied_total", "Configuration transitions applied.", &m.RetunesApplied)
	count("autopilot_retune_errors_total", "Retunes that failed to recommend or to apply.", &m.RetuneErrors)
	one("autopilot_retunes_in_flight", "gauge", "Retunes building right now.", float64(m.RetunesInFlight.Load()))
	count("autopilot_structures_built_total", "Indexes and views built by retunes.", &m.StructuresBuilt)
	count("autopilot_structures_dropped_total", "Indexes and views dropped by retunes.", &m.StructuresDropped)
	count("autopilot_retune_wall_ms_total", "Wall-clock milliseconds spent retuning.", &m.RetuneWallMS)
	m.mu.Lock()
	lw := m.last
	m.mu.Unlock()
	if lw != nil {
		sat := 0.0
		if lw.Satisfied {
			sat = 1
		}
		one("autopilot_window_index", "gauge", "Index of the last graded window.", float64(lw.Window))
		one("autopilot_window_p50_seconds", "gauge", "Last window's median simulated latency (-1 when among timeouts).", core.FiniteOrNeg(lw.P50))
		one("autopilot_window_p95_seconds", "gauge", "Last window's p95 simulated latency (-1 when among timeouts).", core.FiniteOrNeg(lw.P95))
		one("autopilot_window_p99_seconds", "gauge", "Last window's p99 simulated latency (-1 when among timeouts).", core.FiniteOrNeg(lw.P99))
		one("autopilot_window_mean_seconds", "gauge", "Last window's mean simulated latency (-1 when infinite).", core.FiniteOrNeg(lw.MeanSeconds))
		one("autopilot_window_ea_ratio_p50", "gauge", "Last window's median estimated/actual cost ratio.", lw.EAMedian)
		one("autopilot_window_ea_ratio_p90", "gauge", "Last window's p90 estimated/actual cost ratio.", lw.EAP90)
		one("autopilot_window_goal_satisfied", "gauge", "1 when the last window met the goal.", sat)
		one("autopilot_window_goal_satisfaction", "gauge", "Last window's goal satisfaction level in [0,1].", lw.Satisfaction)
	}
	p.Serve(w)
}

func (m *Metrics) serveHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// conflint:ignore best-effort write to a health-check client that may have disconnected; nothing to do with the error
	json.NewEncoder(w).Encode(map[string]any{
		"status":            "ok",
		"uptime_seconds":    m.uptime(),
		"windows_completed": m.WindowsCompleted.Load(),
		"queries_served":    m.QueriesServed.Load(),
		"retunes_in_flight": m.RetunesInFlight.Load(),
	})
}

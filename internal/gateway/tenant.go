package gateway

import (
	"slices"
	"sync"

	"repro/internal/core"
)

// recentSQLCap bounds the per-tenant ring of recently served distinct
// queries the tuner recommends over.
const recentSQLCap = 64

// tenantState is one tenant's runtime: the two admission semaphores,
// cumulative goal accounting, the sliding observation window, and
// counters for the observability surface.
//
// Cumulative goal accounting is deliberately order-insensitive: goalMet
// counts completed queries at or under each goal step's edge, so the
// goal level derived from it is identical no matter how concurrent
// completions interleave — the property the determinism suite pins.
type tenantState struct {
	cfg      TenantConfig
	goal     core.Goal
	allow    map[string]bool // relation allowlist; nil = all
	families map[string]bool

	// slots counts admitted queries (cap MaxQueue + MaxConcurrency; full
	// → 429), run the running ones (cap MaxConcurrency).
	slots, run chan struct{}

	mu        sync.Mutex
	admitted  int64            // conflint:guardedby mu
	completed int64            // conflint:guardedby mu
	errored   int64            // conflint:guardedby mu
	timeouts  int64            // conflint:guardedby mu
	rejected  map[string]int64 // conflint:guardedby mu (by reason)
	simTotal  float64          // conflint:guardedby mu
	goalMet   []int64          // conflint:guardedby mu (per goal step: completed with s <= X)
	mix       map[string]int64 // conflint:guardedby mu (by family)

	window     []core.Measure  // conflint:guardedby mu (ring of recent completions)
	windowMet  []int64         // conflint:guardedby mu (goalMet over the window's measures)
	recentSQL  []string        // conflint:guardedby mu (ring of recent query texts)
	recentSet  map[string]bool // conflint:guardedby mu (members of recentSQL)
	recentPos  int             // conflint:guardedby mu (next slot once recentSQL is full)
	lastTuneAt int64           // conflint:guardedby mu (completed count at last tuner signal)
}

func newTenantState(cfg TenantConfig) *tenantState {
	goal := goalOf(cfg.Goal)
	return &tenantState{
		cfg:       cfg,
		goal:      goal,
		allow:     cfg.allowSet(),
		families:  cfg.familySet(),
		slots:     make(chan struct{}, cfg.MaxQueue+cfg.MaxConcurrency),
		run:       make(chan struct{}, cfg.MaxConcurrency),
		rejected:  make(map[string]int64),
		goalMet:   make([]int64, len(goal.Steps)),
		windowMet: make([]int64, len(goal.Steps)),
		mix:       make(map[string]int64),
		window:    make([]core.Measure, 0, cfg.Window),
		recentSQL: make([]string, 0, recentSQLCap),
		recentSet: make(map[string]bool, recentSQLCap),
	}
}

// noteAdmitted counts an accepted query at admission time.
func (t *tenantState) noteAdmitted(family string) {
	t.mu.Lock()
	t.admitted++
	t.mix[family]++
	t.mu.Unlock()
}

// noteRejected counts a rejection by reason.
func (t *tenantState) noteRejected(reason string) {
	t.mu.Lock()
	t.rejected[reason]++
	t.mu.Unlock()
}

// noteCompleted folds one finished query into the cumulative and
// sliding-window accounting, and reports whether the tenant's sliding
// window is full and in violation of its goal — the tuner trigger.
func (t *tenantState) noteCompleted(sqlText string, seconds float64, timedOut, errored bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.completed++
	if errored {
		t.errored++
		return false
	}
	m := core.Measure{Seconds: seconds, TimedOut: timedOut}
	if timedOut {
		t.timeouts++
	} else {
		t.simTotal += seconds
	}
	t.tally(t.goalMet, m, 1)

	// Once full, the ring's next slot follows from the counters: the
	// non-errored completions so far, less one, mod Window.
	if len(t.window) < t.cfg.Window {
		t.window = append(t.window, m)
	} else {
		slot := &t.window[(t.completed-t.errored-1)%int64(t.cfg.Window)]
		t.tally(t.windowMet, *slot, -1)
		*slot = m
	}
	t.tally(t.windowMet, m, 1)

	if !t.recentSet[sqlText] {
		t.recentSet[sqlText] = true
		if len(t.recentSQL) < recentSQLCap {
			t.recentSQL = append(t.recentSQL, sqlText)
		} else {
			delete(t.recentSet, t.recentSQL[t.recentPos])
			t.recentSQL[t.recentPos] = sqlText
			t.recentPos = (t.recentPos + 1) % recentSQLCap
		}
	}

	if len(t.window) < t.cfg.Window {
		return false
	}
	if t.completed-t.lastTuneAt < int64(t.cfg.Window) {
		return false
	}
	if goalLevel(t.goal, t.windowMet, int64(len(t.window))) == 1 {
		return false
	}
	t.lastTuneAt = t.completed
	return true
}

// tally adds d to met's count of each goal step m completed at or under.
func (t *tenantState) tally(met []int64, m core.Measure, d int64) {
	if m.TimedOut {
		return
	}
	for i, st := range t.goal.Steps {
		if m.Seconds <= st.X {
			met[i] += d
		}
	}
}

// goalLevelLocked grades the cumulative run (timeouts included in the
// denominator).
func (t *tenantState) goalLevelLocked() float64 {
	return goalLevel(t.goal, t.goalMet, t.completed-t.errored)
}

// goalLevel grades n measures of which met[i] completed at or under goal
// step i's edge: the fraction of steps where at least Frac of them did.
// For finite times CFC.At(nextAfter(X)) is met[i]/n, so this equals
// core.Goal.Satisfaction over their CFC, read from O(steps) counters
// instead of O(measures) samples. No steps, or no measures, grade 1.
func goalLevel(g core.Goal, met []int64, n int64) float64 {
	if len(g.Steps) == 0 || n == 0 {
		return 1
	}
	ok := 0
	for i, st := range g.Steps {
		if float64(met[i])/float64(n) >= st.Frac {
			ok++
		}
	}
	return float64(ok) / float64(len(g.Steps))
}

// recentQueries copies the distinct recent query texts.
func (t *tenantState) recentQueries() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.recentSQL)
}

// TenantSnapshot is the per-tenant observability record served by
// /v1/stats.
type TenantSnapshot struct {
	Tenant    string           `json:"tenant"`
	Admitted  int64            `json:"admitted"`
	Completed int64            `json:"completed"`
	Errored   int64            `json:"errored,omitempty"`
	Timeouts  int64            `json:"timeouts"`
	Rejected  map[string]int64 `json:"rejected,omitempty"`

	// GoalLevel is the cumulative goal satisfaction level in [0,1].
	GoalLevel float64 `json:"goal_level"`
	// WindowGoalLevel grades only the sliding window (0 when the window
	// has not filled yet).
	WindowGoalLevel float64 `json:"window_goal_level"`
	// WindowP50/P95 are sliding-window latency quantiles in simulated
	// seconds (-1 when the quantile falls among timeouts).
	WindowP50 float64 `json:"window_p50_seconds"`
	WindowP95 float64 `json:"window_p95_seconds"`

	MeanSimSeconds float64          `json:"mean_sim_seconds"`
	Mix            map[string]int64 `json:"mix,omitempty"`
}

// snapshot copies the tenant's counters.
func (t *tenantState) snapshot() TenantSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TenantSnapshot{
		Tenant:    t.cfg.Name,
		Admitted:  t.admitted,
		Completed: t.completed,
		Errored:   t.errored,
		Timeouts:  t.timeouts,
		GoalLevel: t.goalLevelLocked(),
	}
	if n := t.completed - t.errored - t.timeouts; n > 0 {
		s.MeanSimSeconds = t.simTotal / float64(n)
	}
	if len(t.rejected) > 0 {
		s.Rejected = make(map[string]int64, len(t.rejected))
		for k, v := range t.rejected {
			s.Rejected[k] = v
		}
	}
	if len(t.mix) > 0 {
		s.Mix = make(map[string]int64, len(t.mix))
		for k, v := range t.mix {
			s.Mix[k] = v
		}
	}
	if len(t.window) > 0 {
		d := core.DigestOf(t.window, t.goal, 0)
		if len(t.window) == t.cfg.Window {
			s.WindowGoalLevel = goalLevel(t.goal, t.windowMet, int64(len(t.window)))
		}
		s.WindowP50, s.WindowP95 = core.FiniteOrNeg(d.P50), core.FiniteOrNeg(d.P95)
	}
	return s
}

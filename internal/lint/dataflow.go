// The interprocedural dataflow substrate for the v3 analyzers (dettaint,
// shutdownpath). It layers two things on the v2 call graph:
//
//   - reverse edges (Callers), so a changed function summary can requeue
//     exactly the functions whose own summaries depend on it;
//   - a deterministic worklist fixpoint driver: functions are recomputed
//     in sorted-key order, re-enqueued dependents keep that order, and
//     the per-rule iteration count is recorded for BENCH_conflint.json.
//
// Summaries must be monotone over a finite lattice (a taint value
// appears at most once per slot; a blocking fact never un-blocks), so the fixpoint terminates and —
// because both the initial queue and every re-enqueue are ordered — it
// terminates in the same state with findings in the same order on every
// run, sequential or parallel.
//
// Witness paths reuse lockorder's vocabulary: each taintVal carries the
// step-by-step chain (source position first) that realizes the flow, so
// every interprocedural finding prints how the violation happens, not
// just where.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Callers builds (once) the reverse adjacency of the call graph:
// callee key -> sorted, deduplicated caller keys.
func (m *Module) Callers() map[string][]string {
	if m.callers != nil {
		return m.callers
	}
	g := m.Graph()
	rev := make(map[string]map[string]bool)
	for _, key := range g.Keys() {
		for _, cs := range g.Node(key).Out {
			set := rev[cs.Callee]
			if set == nil {
				set = make(map[string]bool)
				rev[cs.Callee] = set
			}
			set[cs.Caller] = true
		}
	}
	out := make(map[string][]string, len(rev))
	for callee, set := range rev {
		callers := make([]string, 0, len(set))
		for c := range set {
			callers = append(callers, c)
		}
		sort.Strings(callers)
		out[callee] = callers
	}
	m.callers = out
	return out
}

// fixpoint drives a summary computation to stability: recompute(key) is
// called for every key in sorted order; when it reports a change, the
// key's callers are re-enqueued (in order, each at most once per round).
// deps, when non-nil, maps a key to extra dependents to re-enqueue
// beyond the call-graph callers (dettaint uses it for field readers).
// The total number of recompute calls is recorded under rule in
// Module.FixpointIters and returned.
func (m *Module) fixpoint(rule string, keys []string, deps func(key string) []string, recompute func(key string) bool) int {
	callers := m.Callers()
	queue := append([]string(nil), keys...)
	sort.Strings(queue)
	queued := make(map[string]bool, len(queue))
	for _, k := range queue {
		queued[k] = true
	}
	known := make(map[string]bool, len(queue))
	for _, k := range queue {
		known[k] = true
	}
	iters := 0
	enqueue := func(k string) {
		if known[k] && !queued[k] {
			queued[k] = true
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		// Drain in sorted batches: the pending set is ordered, processed,
		// and re-enqueues accumulate into the next ordered batch. This
		// keeps the visit order a pure function of the dependency graph.
		batch := queue
		queue = nil
		sort.Strings(batch)
		for _, k := range batch {
			queued[k] = false
		}
		for _, k := range batch {
			iters++
			if !recompute(k) {
				continue
			}
			for _, c := range callers[k] {
				enqueue(c)
			}
			if deps != nil {
				for _, d := range deps(k) {
					enqueue(d)
				}
			}
		}
	}
	m.noteIters(rule, iters)
	return iters
}

// noteIters records a rule's fixpoint iteration count (guarded: the
// parallel runner may warm several module passes concurrently).
func (m *Module) noteIters(rule string, iters int) {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	if m.fixIters == nil {
		m.fixIters = make(map[string]int)
	}
	m.fixIters[rule] += iters
}

// FixpointIters returns a copy of the per-rule fixpoint iteration
// counts accumulated so far (for BENCH_conflint.json).
func (m *Module) FixpointIters() map[string]int {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	out := make(map[string]int, len(m.fixIters))
	for k, v := range m.fixIters {
		out[k] = v
	}
	return out
}

// taintVal is one abstract tainted value: the nondeterminism source it
// descends from plus the witness chain (source first) that carried it
// here. Values are immutable; extend copies.
type taintVal struct {
	src   string // "time.Now", "math/rand", "map iteration order", "runtime.GOMAXPROCS"
	steps []string
}

func (t *taintVal) extend(step string) *taintVal {
	if t == nil {
		return nil
	}
	steps := make([]string, 0, len(t.steps)+1)
	steps = append(steps, t.steps...)
	steps = append(steps, step)
	return &taintVal{src: t.src, steps: steps}
}

// stepf renders one witness step with a module-relative position.
func (m *Module) stepf(pos token.Pos, format string, args ...any) string {
	return fmt.Sprintf(format, args...) + " at " + m.relPos(m.Fset.Position(pos))
}

// The interprocedural summary substrate for shutdownpath and pure. It
// layers two things on the call graph:
//
//   - reverse edges (Callers), so a changed function summary can requeue
//     exactly the functions whose own summaries depend on it;
//   - a deterministic worklist fixpoint driver: functions are recomputed
//     in sorted-key order, and re-enqueued dependents keep that order.
//
// Summaries must be monotone over a finite lattice (a blocking fact never
// un-blocks; an effect, once in a summary, stays), so the fixpoint
// terminates and — because both the initial queue and every re-enqueue
// are ordered — it terminates in the same state with findings in the
// same order on every run.
//
// Witness steps (stepf) reuse lockorder's vocabulary, so every
// interprocedural finding prints how the violation happens, not just
// where.
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
func (m *Module) fixpoint(keys []string, recompute func(key string) bool) {
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
			if !recompute(k) {
				continue
			}
			for _, c := range callers[k] {
				enqueue(c)
			}
		}
	}
}

// stepf renders one witness step with a module-relative position.
func (m *Module) stepf(pos token.Pos, format string, args ...any) string {
	return fmt.Sprintf(format, args...) + " at " + m.relPos(m.Fset.Position(pos))
}

// The one way the interprocedural rules (lock's caller check, lockorder,
// goleak) compute a transitive per-function summary. It layers two
// things on the call graph:
//
//   - reverse edges (Callers), so a changed function summary can requeue
//     exactly the functions whose own summaries depend on it;
//   - a deterministic worklist fixpoint driver: functions are recomputed
//     in sorted-key order, and re-enqueued dependents keep that order.
//
// Summaries must be monotone over a finite lattice (a lock class, once
// acquired or required, stays; a non-termination reason only moves to an
// earlier position), so the fixpoint terminates and — because both the
// initial queue and every re-enqueue are ordered — it terminates in the
// same state with findings in the same order on every run. No rule
// memoizes a recursive walk of its own: a memo filled mid-recursion
// caches a partial answer, and which answer depends on which caller asked
// first.
//
// Witness steps (stepf) share one vocabulary, so every interprocedural
// finding prints how the violation happens, not just where.
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
			if rev[cs.Callee] == nil {
				rev[cs.Callee] = make(map[string]bool)
			}
			rev[cs.Callee][cs.Caller] = true
		}
	}
	m.callers = make(map[string][]string, len(rev))
	for callee, set := range rev {
		m.callers[callee] = sortedKeys(set)
	}
	return m.callers
}

// fixpoint drives a summary computation to stability: recompute(key) is
// called for every key in sorted order; when it reports a change, the
// key's callers are re-enqueued (in order, each at most once per round).
func (m *Module) fixpoint(keys []string, recompute func(key string) bool) {
	callers := m.Callers()
	queued := make(map[string]bool, len(keys)) // key -> pending in the next batch
	for _, k := range keys {
		queued[k] = true
	}
	queue := sortedKeys(queued)
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
				if pending, known := queued[c]; known && !pending {
					queued[c] = true
					queue = append(queue, c)
				}
			}
		}
	}
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// stepf renders one witness step with a module-relative position.
func (m *Module) stepf(pos token.Pos, format string, args ...any) string {
	return fmt.Sprintf(format, args...) + " at " + m.relPos(m.Fset.Position(pos))
}

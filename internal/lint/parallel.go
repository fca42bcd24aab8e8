// The parallel lint runner: RunParallel produces byte-identical output
// to Run by construction — per-package work fans out over core.Runner
// into an indexed result slice, the module-wide interprocedural passes
// are warmed first (their fixpoints are deterministic regardless of who
// runs them), and the final merge is the same package-order append plus
// position sort as the sequential path.
package lint

import (
	"sort"

	"repro/internal/core"
)

// interprocRules are the rules whose Check is a filtered view of one
// module-wide pass: RunParallel warms these first, one goroutine per
// rule, so the per-package fan-out only ever hits warm caches.
var interprocRules = map[string]bool{
	"lockorder":    true,
	"hotalloc":     true,
	"dettaint":     true,
	"shutdownpath": true,
	"pure":         true,
}

// Prewarm builds every lazily shared structure the analyzers read
// concurrently: the resolution index, the call graph and its reverse
// edges, the atomic field sets. After Prewarm, those caches are
// read-only.
func (m *Module) Prewarm() {
	m.buildIndex()
	m.Graph()
	m.Callers()
	atomicSetsOf(m)
}

// RunParallel is Run with the per-package analyzer checks fanned out
// across a bounded worker pool. parallelism <= 0 means GOMAXPROCS;
// parallelism == 1 is exactly the sequential path. Findings are
// byte-identical to Run's at any parallelism.
func RunParallel(m *Module, analyzers []*Analyzer, parallelism int) []Finding {
	if parallelism == 1 {
		return Run(m, analyzers)
	}
	m.Prewarm()
	runner := core.Runner{Parallelism: parallelism}

	// Phase 1: warm the module-wide passes concurrently. Each rule runs
	// exactly once (interprocFindings caches under interMu); passing a
	// throwaway first package makes the pass run without keeping its
	// per-package filtering.
	var interproc []*Analyzer
	for _, a := range analyzers {
		if interprocRules[a.Name] {
			interproc = append(interproc, a)
		}
	}
	if len(interproc) > 0 && len(m.Pkgs) > 0 {
		_ = runner.Each(len(interproc), func(i int) error { // conflint:ignore the warm fn never returns an error
			interproc[i].Check(m.Pkgs[0])
			return nil
		})
	}

	// Phase 2: per-package fan-out into an indexed slice — package i's
	// findings land in slot i, so the merge order equals Run's loop.
	perPkg := make([][]Finding, len(m.Pkgs))
	_ = runner.Each(len(m.Pkgs), func(i int) error { // conflint:ignore analyzer checks never return an error

		p := m.Pkgs[i]
		for _, a := range analyzers {
			perPkg[i] = append(perPkg[i], a.Check(p)...)
		}
		return nil
	})
	var raw []Finding
	for _, fs := range perPkg {
		raw = append(raw, fs...)
	}
	return finishRun(m, raw, analyzers)
}

// coversAllRules reports whether the selected analyzers include every
// registered rule. Stale-ignore detection only runs then: under a rule
// subset, a directive written for an unselected rule would look unused.
func coversAllRules(analyzers []*Analyzer) bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	for _, a := range All() {
		if !names[a.Name] {
			return false
		}
	}
	return true
}

// finishRun applies ignore directives, reports bare and stale
// directives, fills structural attribution, and sorts — the shared tail
// of Run and RunParallel.
func finishRun(m *Module, raw []Finding, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, f := range raw {
		if info, dline, ok := m.ignoreAt(f.File, f.Line); ok {
			m.noteIgnoreUsed(f.File, dline)
			if info.reason != "" {
				continue
			}
			// Fall through: a bare directive suppresses nothing.
		}
		out = append(out, f)
	}
	staleCheck := coversAllRules(analyzers)
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			lines := make([]int, 0, len(file.ignores))
			for line := range file.ignores {
				lines = append(lines, line)
			}
			sort.Ints(lines)
			for _, line := range lines {
				info := file.ignores[line]
				if info.reason == "" {
					out = append(out, Finding{
						Rule: "ignore", File: file.Path, Line: line, Col: 1,
						Message: "conflint:ignore needs a reason (// conflint:ignore <why this is safe>)",
						Hint:    "state why the finding is a false alarm, or fix the code",
					})
					continue
				}
				if staleCheck && !m.ignoreUsed(file.Path, line) {
					out = append(out, Finding{
						Rule: "ignore", File: file.Path, Line: line, Col: 1,
						Message: "conflint:ignore suppresses nothing: no rule reports a finding on this line or the line below",
						Hint:    "delete the stale directive (conflint -fix does), or restore the code it was written for",
						Fixes:   []TextEdit{m.deleteCommentEdit(file, info.pos, info.end)},
					})
				}
			}
		}
	}
	for i := range out {
		out[i].Package, out[i].Symbol = m.symbolAt(out[i].File, out[i].Line)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

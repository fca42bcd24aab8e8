// The goroutine rules, goleak and shutdownpath, share one summary.
//
// goleak: every `go` statement must come with an argument for why the
// goroutine does not outlive its work. A spawn site passes if any of
// these hold, checked in order:
//
//  1. it carries a `// conflint:worker <reason>` annotation (on the go
//     statement's line or the line above) — the escape hatch for
//     deliberate long-lived workers. The reason is mandatory; a bare
//     annotation is itself a finding and covers nothing;
//  2. it is WaitGroup-paired: the spawner calls wg.Add before the spawn
//     and wg.Wait on the same expression, and the spawned body (or a
//     function it calls) calls Done on a sync.WaitGroup;
//  3. the spawned body is tied to a lifecycle: it (or a callee) selects
//     on a channel receive, or receives from a `Done()` channel;
//  4. the spawned body provably terminates: no `for {}` without a break
//     or return, no range over a channel, no empty select, no blocking
//     stdlib serve loop — transitively through resolved callees.
//
// shutdownpath sharpens "terminates" to "terminates promptly on
// shutdown". Every conflint:worker declares its lifecycle:
//
//	// conflint:worker lifecycle=<chan> <reason>   stops when <chan> closes
//	// conflint:worker lifecycle=none <reason>     never blocks at all
//	// conflint:worker lifecycle=external <reason> stopped by an external
//	                                               mechanism (http server
//	                                               Shutdown, process exit)
//
// For lifecycle=<chan>, every blocking operation reachable from the
// worker body must be guarded by the lifecycle channel: ranging over it,
// receiving from it, or selecting with a case that receives from it (or
// with a default). An unguarded block — a bare send, a receive from some
// other channel, a default-less select with no lifecycle case, a
// WaitGroup.Wait, a blocking stdlib serve loop — would keep the worker
// alive after shutdown closes its channel. A blocking operation under a
// reasoned conflint:ignore is exempt at its source, and every transitive
// report through it disappears with it.
//
// Both rules read one per-function summary, computed by one body walk
// and driven to a fixpoint over the call graph (m.fixpoint): the first
// unguarded blocking op with its witness chain, the first reason the
// function may not terminate, lifecycle evidence, and WaitGroup.Done.
// Nested go statements and function literals are skipped — what another
// goroutine or a closure does is judged where it is spawned or called —
// except that a Done called directly in a closure still pairs. Unresolvable callees
// and spawn targets are assumed to terminate without blocking
// (conservative toward silence, like the rest of the suite).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

const workerDirective = "conflint:worker"

// GoLeak returns the goroutine-lifecycle analyzer.
func GoLeak() *Analyzer {
	return &Analyzer{
		Name: "goleak",
		Doc:  "every go statement must terminate, be WaitGroup-paired, follow a lifecycle channel, or carry conflint:worker <reason>",
		Run:  goLeakModule,
	}
}

// ShutdownPath returns the worker shutdown-path analyzer.
func ShutdownPath() *Analyzer {
	return &Analyzer{
		Name: "shutdownpath",
		Doc:  "every conflint:worker must declare lifecycle=<chan>|none|external, and all its blocking ops must be guarded by that lifecycle",
		Run:  shutdownPathModule,
	}
}

// worker is one parsed conflint:worker directive.
type worker struct {
	lifecycle string // channel name, "none", "external", or "" (undeclared)
	reason    string // the human reason, lifecycle token stripped
}

func parseWorker(text string) worker {
	if fields := strings.Fields(text); len(fields) > 0 {
		if lc, ok := strings.CutPrefix(fields[0], "lifecycle="); ok {
			return worker{lifecycle: lc, reason: strings.Join(fields[1:], " ")}
		}
	}
	return worker{reason: text}
}

// eachSpawn calls visit for every go statement in the module with the
// conflint:worker directive covering it (annotated is false when none
// does, and a bare directive annotates nothing).
func (m *Module) eachSpawn(visit func(fd *funcDecl, g *ast.GoStmt, w worker, annotated bool)) {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, fn := range fileFuncs(f) {
				fd := &funcDecl{pkg: p, file: f, decl: fn}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						text, _, ok := covering(f.workers, m.Fset.Position(g.Pos()).Line)
						visit(fd, g, parseWorker(text), ok && text != "")
					}
					return true
				})
			}
		}
	}
}

// spawned resolves what a go statement runs: a literal's body in the
// spawner's context, or the named callee's declaration. The body is nil
// when the target is unresolvable (a function value, an interface
// method).
func (m *Module) spawned(fd *funcDecl, g *ast.GoStmt) (*funcDecl, *ast.BlockStmt) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return fd, lit.Body
	}
	if node := m.Graph().Node(m.calleeKey(fd.pkg, fd.file, fd.decl, g.Call)); node != nil && node.Fn != nil {
		return node.Fn, node.Fn.decl.Body
	}
	return nil, nil
}

func goLeakModule(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for line, text := range f.workers {
				if text == "" {
					out = append(out, Finding{
						Rule: "goleak", File: f.Path, Line: line, Col: 1,
						Message: "conflint:worker needs a reason (// conflint:worker <why this goroutine is deliberately long-lived>)",
						Hint:    "state the worker's lifecycle (who stops it, or why running forever is intended)",
					})
				}
			}
		}
	}
	m.goSummaries()
	m.eachSpawn(func(fd *funcDecl, g *ast.GoStmt, _ worker, annotated bool) {
		wfd, body := m.spawned(fd, g)
		if annotated || body == nil {
			return
		}
		facts := m.scan(wfd, body, "", nil)
		if facts.done && waitGroupPaired(m, fd, g) || facts.lifecycle || facts.nonterm == nil {
			return
		}
		pos := m.Fset.Position(g.Pos())
		out = append(out, Finding{
			Rule: "goleak", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("goroutine may leak: %s, and it is neither WaitGroup-paired nor tied to a lifecycle channel", facts.nonterm.why),
			Hint:    "bound it (WaitGroup Add/Done/Wait), give it a stop channel or context select, or annotate `// conflint:worker <reason>` if it is deliberately long-lived",
		})
	})
	return out
}

// waitGroupPaired reports whether the spawner calls Add before the spawn
// and Wait, on the same sync.WaitGroup expression.
func waitGroupPaired(m *Module, fd *funcDecl, g *ast.GoStmt) bool {
	added, waited := make(map[string]bool), make(map[string]bool)
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch key := stdlibCallKey(m, fd, call); {
		case key == "sync.WaitGroup.Add" && call.Pos() < g.Pos():
			added[exprString(m.Fset, call.Fun.(*ast.SelectorExpr).X)] = true
		case key == "sync.WaitGroup.Wait":
			waited[exprString(m.Fset, call.Fun.(*ast.SelectorExpr).X)] = true
		}
		return true
	})
	for wg := range added {
		if waited[wg] {
			return true
		}
	}
	return false
}

// shutdownPathModule checks every annotated worker spawn site: the
// directive must declare a lifecycle and a reason, and for channel
// lifecycles every blocking op reachable from the body must be guarded.
func shutdownPathModule(m *Module) []Finding {
	m.goSummaries()
	var out []Finding
	m.eachSpawn(func(fd *funcDecl, g *ast.GoStmt, w worker, annotated bool) {
		if !annotated {
			return // a bare directive is goleak's finding
		}
		pos := m.Fset.Position(g.Pos())
		if w.lifecycle == "" {
			out = append(out, Finding{
				Rule: "shutdownpath", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: "conflint:worker must declare its shutdown mechanism: lifecycle=<chan> (stops when the channel closes), lifecycle=none (never blocks), or lifecycle=external (stopped externally)",
				Hint:    "name the channel the worker's blocking ops are guarded by, e.g. // conflint:worker lifecycle=trigger <reason>",
			})
			return
		}
		if w.reason == "" {
			out = append(out, Finding{
				Rule: "shutdownpath", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: "conflint:worker needs a reason beyond the lifecycle token (// conflint:worker lifecycle=... <why this worker exists>)",
				Hint:    "state what the worker does and who stops it",
			})
		}
		wfd, body := m.spawned(fd, g)
		if w.lifecycle == "external" || body == nil {
			return // shutdown is somebody else's contract, or unresolvable
		}
		m.scan(wfd, body, w.lifecycle, func(r *reason) {
			p := m.Fset.Position(r.pos)
			witness := append([]string{m.stepf(g.Pos(), "worker spawned (lifecycle=%s)", w.lifecycle)}, r.steps...)
			out = append(out, Finding{
				Rule: "shutdownpath", File: p.Filename, Line: p.Line, Col: p.Column,
				Message: fmt.Sprintf("worker (lifecycle=%s) %s: on shutdown it would hang here instead of draining promptly", w.lifecycle, r.why),
				Hint:    "guard the operation with a select on the lifecycle channel, move it off the worker, or conflint:ignore with a boundedness argument",
				Witness: clip(witness),
			})
		})
	})
	return out
}

// reason is one fact of a goroutine summary: where it happens, why, and
// (for blocking ops) the witness chain reaching it.
type reason struct {
	pos   token.Pos
	why   string
	steps []string
}

const maxBlockSteps = 8

func clip(steps []string) []string {
	if len(steps) > maxBlockSteps {
		return steps[:maxBlockSteps]
	}
	return steps
}

// earlier reports whether r should replace cur: the first reason in
// source order wins, so a summary does not depend on visit order.
func earlier(r, cur *reason) bool {
	return r != nil && (cur == nil || r.pos < cur.pos)
}

// goFacts is one body's goroutine summary.
type goFacts struct {
	block     *reason // first unguarded blocking op
	nonterm   *reason // first reason the body may not terminate
	lifecycle bool    // selects on a receive, or receives from Done()
	done      bool    // calls sync.WaitGroup.Done
}

// goSummaries computes (once) every function's goroutine summary to a
// fixpoint. Each field only moves up its lattice — a reason appears or
// moves to an earlier position, a flag turns on — so the drive ends.
func (m *Module) goSummaries() map[string]*goFacts {
	if m.goFacts != nil {
		return m.goFacts
	}
	m.goFacts = make(map[string]*goFacts)
	g := m.Graph()
	m.fixpoint(g.Keys(), func(key string) bool {
		fd := g.Node(key).Fn
		if fd == nil || fd.decl.Body == nil {
			return false
		}
		next := m.scan(fd, fd.decl.Body, "", nil)
		cur := m.goFacts[key]
		if cur == nil {
			cur = &goFacts{}
			m.goFacts[key] = cur
		}
		changed := false
		if earlier(next.block, cur.block) {
			cur.block, changed = next.block, true
		}
		if earlier(next.nonterm, cur.nonterm) {
			cur.nonterm, changed = next.nonterm, true
		}
		if next.lifecycle && !cur.lifecycle {
			cur.lifecycle, changed = true, true
		}
		if next.done && !cur.done {
			cur.done, changed = true, true
		}
		return changed
	})
	return m.goFacts
}

// scan walks one body under a lifecycle ("", "none" and "external" guard
// nothing) and returns its summary, reading callees' from goSummaries.
// hit, when set, sees every unguarded blocking op.
func (m *Module) scan(fd *funcDecl, body ast.Node, lifecycle string, hit func(*reason)) goFacts {
	guard := lifecycle
	if guard == "none" || guard == "external" {
		guard = ""
	}
	var facts goFacts
	nonterm := func(pos token.Pos, format string, args ...any) {
		if r := (&reason{pos: pos, why: fmt.Sprintf(format, args...)}); earlier(r, facts.nonterm) {
			facts.nonterm = r
		}
	}
	block := func(pos token.Pos, why string, steps ...string) {
		if m.ignored(fd.file, pos) {
			return
		}
		r := &reason{pos: pos, why: why, steps: steps}
		if len(steps) == 0 {
			r.steps = []string{m.stepf(pos, "%s", why)}
		}
		if earlier(r, facts.block) {
			facts.block = r
		}
		if hit != nil {
			hit(r)
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			// A closure runs later or elsewhere; only a Done directly in
			// one (`defer func() { ...; wg.Done() }()`) still pairs.
			ast.Inspect(s.Body, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				facts.done = facts.done || isCall && lastSelName(call) == "Done" && stdlibCallKey(m, fd, call) == "sync.WaitGroup.Done"
				_, isGo := n.(*ast.GoStmt)
				return !isGo
			})
			return false
		case *ast.SelectStmt:
			if len(s.Body.List) == 0 {
				nonterm(s.Pos(), "it blocks forever on an empty select{}")
			}
			hasDefault, guarded := false, false
			for _, cl := range s.Body.List {
				cc := cl.(*ast.CommClause)
				ch, recv := commRecv(cc)
				hasDefault = hasDefault || cc.Comm == nil
				facts.lifecycle = facts.lifecycle || recv
				guarded = guarded || recv && guard != "" && lastSelName(ch) == guard
			}
			if !hasDefault && !guarded {
				block(s.Pos(), describeSelect(guard))
			}
			// The comm operations belong to the select; only the clause
			// bodies can block on their own.
			for _, cl := range s.Body.List {
				for _, st := range cl.(*ast.CommClause).Body {
					ast.Inspect(st, walk)
				}
			}
			return false
		case *ast.SendStmt:
			block(s.Arrow, fmt.Sprintf("sends on %s with no lifecycle guard", exprString(m.Fset, s.Chan)))
		case *ast.UnaryExpr:
			if s.Op != token.ARROW {
				break
			}
			if _, isCall := s.X.(*ast.CallExpr); isCall && lastSelName(s.X) == "Done" {
				facts.lifecycle = true
			}
			if guard == "" || lastSelName(s.X) != guard {
				block(s.OpPos, fmt.Sprintf("receives from %s with no lifecycle guard", exprString(m.Fset, s.X)))
			}
		case *ast.ForStmt:
			if s.Cond == nil && !hasBreakOrReturn(s.Body) {
				nonterm(s.Pos(), "it loops forever (for {} with no break or return)")
			}
		case *ast.RangeStmt:
			if _, isChan := m.Underlying(m.TypeOf(fd.pkg, fd.file, fd.decl, s.X)).Expr.(*ast.ChanType); isChan {
				x := exprString(m.Fset, s.X)
				nonterm(s.Pos(), "it ranges over channel %s, which never ends unless the channel is closed", x)
				if guard == "" || lastSelName(s.X) != guard {
					block(s.Pos(), fmt.Sprintf("ranges over channel %s, which is not the lifecycle channel", x))
				}
			}
		case *ast.CallExpr:
			m.scanCall(fd, s, &facts, nonterm, block)
		}
		return true
	}
	ast.Inspect(body, walk)
	return facts
}

// blockingStdlib maps the stdlib calls that block until an external
// shutdown (stdlibCallKey form) to the name findings print.
var blockingStdlib = map[string]string{
	"net/http.Server.Serve":             "net/http.Server.Serve",
	"net/http.Server.ServeTLS":          "net/http.Server.ServeTLS",
	"net/http.Server.ListenAndServe":    "net/http.Server.ListenAndServe",
	"net/http.Server.ListenAndServeTLS": "net/http.Server.ListenAndServeTLS",
	"net/http.ListenAndServe":           "http.ListenAndServe",
	"net/http.ListenAndServeTLS":        "http.ListenAndServeTLS",
}

// scanCall folds one call into a body's summary: blocking stdlib serve
// loops, WaitGroup.Wait and Done, and resolved module callees.
func (m *Module) scanCall(fd *funcDecl, call *ast.CallExpr, facts *goFacts,
	nonterm func(token.Pos, string, ...any), block func(token.Pos, string, ...string)) {
	pos := call.Pos()
	sk := stdlibCallKey(m, fd, call)
	if name, ok := blockingStdlib[sk]; ok {
		nonterm(pos, "it blocks in %s until shutdown", name)
		block(pos, fmt.Sprintf("blocks in %s until an external shutdown", name), m.stepf(pos, "blocks in %s", name))
		return
	}
	switch sk {
	case "sync.WaitGroup.Done":
		facts.done = true
	case "sync.WaitGroup.Wait":
		wg := exprString(m.Fset, call.Fun.(*ast.SelectorExpr).X)
		block(pos, fmt.Sprintf("waits on %s with no lifecycle guard", wg), m.stepf(pos, "waits on %s", wg))
	}
	key := m.calleeKey(fd.pkg, fd.file, fd.decl, call)
	sub := m.goFacts[key]
	if sub == nil {
		return
	}
	facts.lifecycle = facts.lifecycle || sub.lifecycle
	facts.done = facts.done || sub.done
	if sub.nonterm != nil {
		nonterm(pos, "it calls %s, which %s", m.shortKey(key), sub.nonterm.why)
	}
	if sub.block != nil {
		block(pos, sub.block.why, clip(append([]string{m.stepf(pos, "calls %s", m.shortKey(key))}, sub.block.steps...))...)
	}
}

// commRecv returns the channel a select clause receives from; ok is
// false for sends and the default clause.
func commRecv(cc *ast.CommClause) (ch ast.Expr, ok bool) {
	var e ast.Expr
	switch c := cc.Comm.(type) {
	case *ast.ExprStmt:
		e = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			e = c.Rhs[0]
		}
	}
	if u, isRecv := e.(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
		return u.X, true
	}
	return nil, false
}

// lastSelName returns the final name of an expression ("as.trigger" ->
// "trigger"), the currency lifecycle channels are matched in: the
// spawner writes `lifecycle=trigger` and both `as.trigger` in a literal
// body and `w.trigger` in a named worker method match it.
func lastSelName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ParenExpr:
		return lastSelName(e.X)
	case *ast.CallExpr:
		// <-ctx.Done(): match on the method name.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
	}
	return ""
}

func describeSelect(guard string) string {
	if guard == "" {
		return "blocks in a select with no default case"
	}
	return fmt.Sprintf("blocks in a select with no default and no case receiving from lifecycle channel %s", guard)
}

// hasBreakOrReturn reports whether a loop body can exit: any break or
// return anywhere inside (an approximation — a break bound to an inner
// loop counts, trading a missed leak for no false alarms on the common
// `for { ... if done { break } ... }` shape).
func hasBreakOrReturn(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			found = found || s.Tok == token.BREAK || s.Tok == token.GOTO
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

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
// The rule reads one per-function summary, computed by one body walk
// and driven to a fixpoint over the call graph (m.fixpoint): the first
// reason the function may not terminate, lifecycle evidence, and
// WaitGroup.Done. Nested go statements and function literals are
// skipped — what another goroutine or a closure does is judged where it
// is spawned or called — except that a Done called directly in a
// closure still pairs. Unresolvable callees and spawn targets are
// assumed to terminate (conservative toward silence, like the rest of
// the suite).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
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
	m.goSummaries()
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
			for _, fn := range fileFuncs(f) {
				fd := &funcDecl{pkg: p, file: f, decl: fn}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						out = append(out, m.checkSpawn(fd, g)...)
					}
					return true
				})
			}
		}
	}
	return out
}

// checkSpawn judges one go statement (see the file comment).
func (m *Module) checkSpawn(fd *funcDecl, g *ast.GoStmt) []Finding {
	pos := m.Fset.Position(g.Pos())
	if text, _, ok := covering(fd.file.workers, pos.Line); ok && text != "" {
		return nil
	}
	wfd, body := m.spawned(fd, g)
	if body == nil {
		return nil
	}
	facts := m.scan(wfd, body)
	if facts.done && waitGroupPaired(m, fd, g) || facts.lifecycle || facts.nonterm == nil {
		return nil
	}
	return []Finding{{
		Rule: "goleak", File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Message: fmt.Sprintf("goroutine may leak: %s, and it is neither WaitGroup-paired nor tied to a lifecycle channel", facts.nonterm.why),
		Hint:    "bound it (WaitGroup Add/Done/Wait), give it a stop channel or context select, or annotate `// conflint:worker <reason>` if it is deliberately long-lived",
	}}
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

// reason is why a body may not terminate, and where.
type reason struct {
	pos token.Pos
	why string
}

// earlier reports whether r should replace cur: the first reason in
// source order wins, so a summary does not depend on visit order.
func earlier(r, cur *reason) bool {
	return r != nil && (cur == nil || r.pos < cur.pos)
}

// goFacts is one body's goroutine summary.
type goFacts struct {
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
		next := m.scan(fd, fd.decl.Body)
		cur := m.goFacts[key]
		if cur == nil {
			cur = &goFacts{}
			m.goFacts[key] = cur
		}
		changed := false
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

// scan walks one body and returns its summary, reading callees' from
// goSummaries.
func (m *Module) scan(fd *funcDecl, body ast.Node) goFacts {
	var facts goFacts
	nonterm := func(pos token.Pos, format string, args ...any) {
		if r := (&reason{pos: pos, why: fmt.Sprintf(format, args...)}); earlier(r, facts.nonterm) {
			facts.nonterm = r
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
				facts.done = facts.done || isCall && selName(call) == "Done" && stdlibCallKey(m, fd, call) == "sync.WaitGroup.Done"
				_, isGo := n.(*ast.GoStmt)
				return !isGo
			})
			return false
		case *ast.SelectStmt:
			if len(s.Body.List) == 0 {
				nonterm(s.Pos(), "it blocks forever on an empty select{}")
			}
			// The comm operations belong to the select; only the clause
			// bodies are walked.
			for _, cl := range s.Body.List {
				cc := cl.(*ast.CommClause)
				facts.lifecycle = facts.lifecycle || commRecv(cc)
				for _, st := range cc.Body {
					ast.Inspect(st, walk)
				}
			}
			return false
		case *ast.UnaryExpr:
			if call, isCall := s.X.(*ast.CallExpr); isCall && s.Op == token.ARROW && selName(call) == "Done" {
				facts.lifecycle = true
			}
		case *ast.ForStmt:
			if s.Cond == nil && !hasBreakOrReturn(s.Body) {
				nonterm(s.Pos(), "it loops forever (for {} with no break or return)")
			}
		case *ast.RangeStmt:
			if _, isChan := m.Underlying(m.TypeOf(fd.pkg, fd.file, fd.decl, s.X)).Expr.(*ast.ChanType); isChan {
				nonterm(s.Pos(), "it ranges over channel %s, which never ends unless the channel is closed", exprString(m.Fset, s.X))
			}
		case *ast.CallExpr:
			m.scanCall(fd, s, &facts, nonterm)
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
// loops, WaitGroup.Done, and resolved module callees.
func (m *Module) scanCall(fd *funcDecl, call *ast.CallExpr, facts *goFacts, nonterm func(token.Pos, string, ...any)) {
	pos := call.Pos()
	sk := stdlibCallKey(m, fd, call)
	if name, ok := blockingStdlib[sk]; ok {
		nonterm(pos, "it blocks in %s until shutdown", name)
		return
	}
	facts.done = facts.done || sk == "sync.WaitGroup.Done"
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
}

// commRecv reports whether a select clause receives (sends and the
// default clause do not).
func commRecv(cc *ast.CommClause) bool {
	var e ast.Expr
	switch c := cc.Comm.(type) {
	case *ast.ExprStmt:
		e = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			e = c.Rhs[0]
		}
	}
	u, isRecv := e.(*ast.UnaryExpr)
	return isRecv && u.Op == token.ARROW
}

// selName returns the method name of a selector call ("ctx.Done()" ->
// "Done"), or "".
func selName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
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

// The lock-order analyzer: the interprocedural half of the lock story.
// lockcheck proves each acquisition is paired; lockorder proves the
// acquisitions *nest consistently* across the whole module. It abstracts
// every mutex to a lock class, propagates the set of held classes across
// call-graph edges, builds the module's lock-ordering graph, and reports
// every cycle as a potential deadlock with a full witness path — the
// chain of functions and source positions that realizes each edge.
//
// Lock classes:
//
//   - a struct mutex field abstracts to "importPath.Type.field"
//     (every Engine instance shares the class engine.Engine.mu — the
//     standard may-deadlock abstraction);
//   - a local variable obtained from a module call that returns a mutex
//     abstracts to the producing callee, "importPath.Type.Method()"
//     (`mu := s.lockFor(key)` is the class "pkg.Store.lockFor()");
//   - anything else is unresolved and produces no edges (conservative).
//
// RLock and Lock acquisitions of one mutex share a class: a read lock
// still participates in ordering cycles against writers. Self-edges
// (re-acquiring a held class) are not reported — that is single-lock
// territory, and flagging RLock-under-RLock would drown real inversions.
//
// `go` call sites contribute no edges: the spawned goroutine does not
// run under the spawner's held set.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder returns the interprocedural lock-ordering analyzer.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "mutex acquisitions must nest consistently module-wide: any cycle in the lock-ordering graph is a potential deadlock",
		Run:  lockOrderModule,
	}
}

// lockEvent is one Lock/RLock/Unlock/RUnlock call, in source order.
type lockEvent struct {
	acquire  bool
	rlock    bool // RLock/RUnlock flavor
	target   string
	class    string // resolved lock class, "" when unresolvable
	pos      token.Pos
	deferred bool
}

// heldInterval is one span of a function body during which a lock class
// is held.
type heldInterval struct {
	class      string
	start, end token.Pos
}

// pathStep is one hop of an acquisition witness: a call (callee != "") or
// the final acquire (callee == "", class names the lock).
type pathStep struct {
	fn     string
	pos    token.Pos
	callee string
	class  string
}

// orderEdge is one "holding from, acquires to" observation with its
// witness: the position where from was acquired, and the step chain
// that reaches the acquisition of to.
type orderEdge struct {
	from, to string
	holder   string // function holding from
	fromPos  token.Pos
	steps    []pathStep
}

// lockOrderModule builds the lock-ordering graph and reports cycles.
func lockOrderModule(m *Module) []Finding {
	g := m.Graph()
	// acq is each function's transitive summary: every class it may
	// acquire, directly or through callees, with one witness path each.
	acq := make(map[string]map[string][]pathStep)
	intervals := make(map[string][]heldInterval)
	for _, key := range g.Keys() {
		fd := g.Node(key).Fn
		if fd == nil || fd.decl.Body == nil {
			continue
		}
		events := m.lockEvents(fd)
		own := make(map[string][]pathStep)
		for _, ev := range events {
			if ev.acquire && ev.class != "" && own[ev.class] == nil {
				own[ev.class] = []pathStep{{fn: key, pos: ev.pos, class: ev.class}}
			}
		}
		acq[key] = own
		intervals[key] = lockIntervals(events, fd.decl.Body.End())
	}
	// Classes only ever join a summary, and a witness is fixed when its
	// class joins, so the fixpoint ends in the same state on every run.
	m.fixpoint(g.Keys(), func(key string) bool {
		own, changed := acq[key], false
		if own == nil {
			return false
		}
		for _, cs := range g.Node(key).Out {
			if cs.Go {
				continue
			}
			sub := acq[cs.Callee]
			for _, c := range sortedKeys(sub) {
				if own[c] == nil {
					own[c] = append([]pathStep{{fn: key, pos: cs.Pos, callee: cs.Callee}}, sub[c]...)
					changed = true
				}
			}
		}
		return changed
	})

	edges := make(map[string]*orderEdge) // "from\x00to" -> first witness
	addEdge := func(e *orderEdge) {
		if k := e.from + "\x00" + e.to; edges[k] == nil {
			edges[k] = e
		}
	}
	for _, key := range g.Keys() {
		// Intra-function nesting: an acquisition inside a held interval.
		for _, outer := range intervals[key] {
			for _, inner := range intervals[key] {
				if outer.class != inner.class && outer.start < inner.start && inner.start < outer.end {
					addEdge(&orderEdge{
						from: outer.class, to: inner.class, holder: key, fromPos: outer.start,
						steps: []pathStep{{fn: key, pos: inner.start, class: inner.class}},
					})
				}
			}
		}
		// Interprocedural nesting: a call made while holding, where the
		// callee transitively acquires.
		for _, cs := range g.Node(key).Out {
			if cs.Go {
				continue
			}
			sub := acq[cs.Callee]
			classes := sortedKeys(sub)
			for _, outer := range intervals[key] {
				if outer.start >= cs.Pos || cs.Pos >= outer.end {
					continue
				}
				for _, c := range classes {
					if c != outer.class {
						steps := append([]pathStep{{fn: key, pos: cs.Pos, callee: cs.Callee}}, sub[c]...)
						addEdge(&orderEdge{from: outer.class, to: c, holder: key, fromPos: outer.start, steps: steps})
					}
				}
			}
		}
	}
	return m.lockOrderCycles(edges)
}

// lockEvents returns (scanning once per module) a function body's lock
// operations in source order, each target resolved to its class. lock
// and lockorder both read this one scan.
func (m *Module) lockEvents(fd *funcDecl) []*lockEvent {
	if evs, ok := m.lockEv[fd.decl]; ok {
		return evs
	}
	if m.lockEv == nil {
		m.lockEv = make(map[*ast.FuncDecl][]*lockEvent)
	}
	fn, f, p := fd.decl, fd.file, fd.pkg
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	var out []*lockEvent
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ev := &lockEvent{pos: call.Pos(), deferred: deferred[call]}
		switch sel.Sel.Name {
		case "Lock":
			ev.acquire = true
		case "RLock":
			ev.acquire, ev.rlock = true, true
		case "Unlock":
		case "RUnlock":
			ev.rlock = true
		default:
			return true
		}
		ev.target = exprString(m.Fset, sel.X)
		ev.class = m.lockClass(p, f, fn, sel.X)
		out = append(out, ev)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	m.lockEv[fn] = out
	return out
}

// lockIntervals pairs each acquisition with its release: the next
// unconsumed same-target, same-flavor release after it. A deferred (or
// missing) release holds the class until end, the end of the body.
func lockIntervals(events []*lockEvent, end token.Pos) []heldInterval {
	var out []heldInterval
	consumed := make([]bool, len(events))
	for i, ev := range events {
		if !ev.acquire || ev.class == "" {
			continue
		}
		iv := heldInterval{class: ev.class, start: ev.pos, end: end}
		for j := i + 1; j < len(events); j++ {
			rel := events[j]
			if rel.acquire || consumed[j] || rel.rlock != ev.rlock || rel.target != ev.target {
				continue
			}
			consumed[j] = true
			if !rel.deferred {
				iv.end = rel.pos
			}
			break
		}
		out = append(out, iv)
	}
	return out
}

// lockClass abstracts a lock target expression to its class (see the
// package comment), or "" when unresolvable.
func (m *Module) lockClass(p *Package, f *File, fn *ast.FuncDecl, target ast.Expr) string {
	switch t := target.(type) {
	case *ast.SelectorExpr:
		key := m.NamedKey(m.TypeOf(p, f, fn, t.X))
		if key == "" {
			return ""
		}
		ft := m.FieldType(key, t.Sel.Name)
		if ft.Expr == nil {
			return ""
		}
		if _, ok := mutexType(ft.File, ft.Expr); !ok {
			return ""
		}
		return key + "." + t.Sel.Name
	case *ast.Ident:
		call := producingCall(fn.Body, t.Name)
		if call == nil {
			return ""
		}
		callee := m.calleeKey(p, f, fn, call)
		if callee == "" {
			return ""
		}
		fd, ok := m.buildIndex().methods[callee]
		if !ok {
			fd, ok = m.buildIndex().funcs[callee]
		}
		if !ok || fd.decl.Type.Results == nil || len(fd.decl.Type.Results.List) == 0 {
			return ""
		}
		if _, isMu := mutexType(fd.file, fd.decl.Type.Results.List[0].Type); !isMu {
			return ""
		}
		return callee + "()"
	}
	return ""
}

// producingCall finds the call expression a local name is defined from
// (`mu := s.lockFor(key)`).
func producingCall(body *ast.BlockStmt, name string) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
					found = call
				}
				return false
			}
		}
		return true
	})
	return found
}

// lockOrderCycles finds every elementary cycle of the ordering graph and
// renders one finding per cycle, anchored at the first edge's holder
// acquisition, with the full witness in Finding.Witness.
func (m *Module) lockOrderCycles(edges map[string]*orderEdge) []Finding {
	adj := make(map[string][]string)
	byPair := make(map[string]*orderEdge)
	nodeSet := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		byPair[e.from+"\x00"+e.to] = e
		nodeSet[e.from], nodeSet[e.to] = true, true
	}
	nodes := sortedKeys(nodeSet)
	for _, n := range nodes {
		sort.Strings(adj[n])
	}

	const maxCycles = 32
	var cycles [][]string
	// Elementary cycles with minimal-node canonical start: from each
	// start node, DFS only through nodes >= start, so every cycle is
	// enumerated exactly once, rooted at its smallest class.
	var dfs func(start, at string, path []string, onPath map[string]bool)
	dfs = func(start, at string, path []string, onPath map[string]bool) {
		if len(cycles) >= maxCycles {
			return
		}
		for _, next := range adj[at] {
			if next == start {
				cycles = append(cycles, append(append([]string{}, path...), start))
				continue
			}
			if next < start || onPath[next] {
				continue
			}
			onPath[next] = true
			dfs(start, next, append(path, next), onPath)
			delete(onPath, next)
		}
	}
	for _, start := range nodes {
		dfs(start, start, []string{start}, map[string]bool{start: true})
	}

	fset := m.Fset
	var out []Finding
	for _, cyc := range cycles {
		first := byPair[cyc[0]+"\x00"+cyc[1]]
		var short []string
		for _, c := range cyc {
			short = append(short, m.shortKey(c))
		}
		var witness []string
		for i := 0; i+1 < len(cyc); i++ {
			e := byPair[cyc[i]+"\x00"+cyc[i+1]]
			witness = append(witness, fmt.Sprintf("edge %s -> %s:", m.shortKey(e.from), m.shortKey(e.to)))
			witness = append(witness, fmt.Sprintf("  %s acquires %s at %s",
				m.shortKey(e.holder), m.shortKey(e.from), m.relPos(fset.Position(e.fromPos))))
			for _, st := range e.steps {
				if st.callee != "" {
					witness = append(witness, fmt.Sprintf("  %s calls %s at %s",
						m.shortKey(st.fn), m.shortKey(st.callee), m.relPos(fset.Position(st.pos))))
				} else {
					witness = append(witness, fmt.Sprintf("  %s acquires %s at %s",
						m.shortKey(st.fn), m.shortKey(st.class), m.relPos(fset.Position(st.pos))))
				}
			}
		}
		pos := fset.Position(first.fromPos)
		out = append(out, Finding{
			Rule: "lockorder", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("potential deadlock: lock-order cycle %s", strings.Join(short, " -> ")),
			Hint:    "pick one global acquisition order for these mutexes and restructure the callers that violate it",
			Witness: witness,
		})
	}
	return out
}

// relPos renders a position with the path relative to the module root.
func (m *Module) relPos(pos token.Position) string {
	file := pos.Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return fmt.Sprintf("%s:%d", file, pos.Line)
}

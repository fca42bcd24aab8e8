// The interprocedural effect analysis: the substrate for the purity
// rule (pure). Every function in the analysis domain gets a
// side-effect summary — a set of effects over a finite lattice:
//
//   - writes, classified by what they mutate: the receiver, a
//     reference-typed parameter (with its slot), or a package-level
//     variable;
//   - channel operations (send, receive, close);
//   - goroutine spawns;
//   - lock acquisitions (Lock and RLock both: a pure observation has no
//     business synchronizing);
//   - calls into a curated table of effectful stdlib functions (file
//     and network I/O, logging, global rand, atomics, sleeps).
//
// Summaries propagate bottom-up over the call graph with the
// fixpoint driver (m.fixpoint, rule "effects"). At each call site a
// callee's receiver/parameter-rooted write is re-rooted through the
// caller's actual receiver/argument expression: rooted in the caller's
// receiver or a reference parameter it stays an effect, rooted in a
// global it stays a global write, and rooted in a fresh local (composite
// literal, new, make, a zero-value var — the fresh-local escape
// exemption) it is discharged: mutating an object the function itself
// allocated is not an observable effect. Writes the re-rooting cannot
// attribute are dropped (conservative silence).
//
// Every effect carries a witness chain (root-first) through the calls
// that realize it, in the same vocabulary as the other interprocedural
// rules. Go-spawned callees do not propagate (their effects happen on
// another goroutine; the spawn itself is already an effect).
//
// Known conservatisms, consistent with the suite's resolution policy:
// freshness is shallow (a fresh struct that holds pointers to caller
// state can launder writes — the executor billing its caller's meter
// through a fresh executor is the sanctioned example); value receivers
// and value parameters are function-local copies, so writes through
// their pointer-valued fields are not tracked; dynamic calls have no
// edges and contribute nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

const pureDirective = "conflint:pure"

// Pure returns the purity-contract analyzer: a function carrying the
// pure directive in its doc comment must be transitively effect-free.
func Pure() *Analyzer {
	return &Analyzer{
		Name: "pure",
		Doc:  "functions declared conflint:pure must be transitively effect-free: no writes to caller-visible state, no channel ops, spawns, locks, or effectful stdlib calls",
		Run:  pureModule,
	}
}

// effKind is the effect lattice's dimension.
type effKind int

const (
	effWrite effKind = iota
	effChan
	effGo
	effLock
	effIO
)

// effRoot classifies what a write mutates.
type effRoot int

const (
	rootRecv effRoot = iota
	rootParam
	rootGlobal
)

// effect is one entry of a function's side-effect summary. Entries are
// immutable once inserted; the witness chain is fixed at first insertion
// (deterministic, because insertion order is deterministic).
type effect struct {
	kind  effKind
	root  effRoot // meaningful for effWrite
	slot  int     // parameter index for root == rootParam
	desc  string  // human-readable effect ("writes engine.Engine.current")
	pos   token.Pos
	steps []string // witness chain, summarized function first
}

// id is the dedup key within one function's summary.
func (e *effect) id() string {
	return fmt.Sprintf("%d|%d|%d|%d", e.pos, e.kind, e.root, e.slot)
}

// effectState is the module-wide result of the analysis.
type effectState struct {
	m         *Module
	sums      map[string][]effect // fixpoint summaries, sorted per key
	local     map[string][]effect // per-function direct effects
	domain    []string            // sorted: the non-go call closure of the pure roots
	pureRoots []string            // sorted conflint:pure function keys

	// callCtx caches per-call-site root classifications: the fixpoint
	// revisits functions, the AST walk need not.
	callCtx map[*funcDecl]map[token.Pos]callRoots
}

// buildEffects computes the module's effect summaries and pure roots.
func buildEffects(m *Module) *effectState {
	es := &effectState{
		m:       m,
		sums:    make(map[string][]effect),
		local:   make(map[string][]effect),
		callCtx: make(map[*funcDecl]map[token.Pos]callRoots),
	}
	g := m.Graph()

	// Pure roots: conflint:pure in the function's doc comment.
	for _, key := range g.Keys() {
		node := g.Node(key)
		if node.Fn != nil && docHasToken(node.Fn.decl, pureDirective) {
			es.pureRoots = append(es.pureRoots, key)
		}
	}

	if len(es.pureRoots) == 0 {
		return es
	}

	// Domain: the non-go call closure of the pure roots.
	inDomain := make(map[string]bool)
	queue := append([]string(nil), es.pureRoots...)
	for _, r := range queue {
		inDomain[r] = true
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		node := g.Node(key)
		if node == nil {
			continue
		}
		for _, cs := range node.Out {
			if !cs.Go && !inDomain[cs.Callee] {
				inDomain[cs.Callee] = true
				queue = append(queue, cs.Callee)
			}
		}
	}
	es.domain = sortedKeys(inDomain)

	// Direct effects, then the bottom-up fixpoint.
	for _, key := range es.domain {
		es.local[key] = es.directEffects(key)
	}
	m.fixpoint(es.domain, es.recompute)
	return es
}

// docHasToken reports whether a function's doc comment carries the
// directive: a comment line that starts with the token (mentioning the
// directive mid-sentence, as this very comment does, is prose, not a
// declaration).
func docHasToken(fn *ast.FuncDecl, tok string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == tok || strings.HasPrefix(text, tok+" ") {
			return true
		}
	}
	return false
}

// stdlibEffects is the curated table of effectful stdlib calls, keyed
// like stdlibReturnsError ("importPath.Func", "importPath.Type.Method").
// Reads of the wall clock are deliberately absent: nondeterminism is
// the determinism rule's jurisdiction; this table is about side effects.
var stdlibEffects = map[string]bool{
	// Filesystem and process.
	"os.WriteFile": true, "os.ReadFile": true, "os.Create": true,
	"os.Open": true, "os.OpenFile": true, "os.Remove": true,
	"os.RemoveAll": true, "os.Mkdir": true, "os.MkdirAll": true,
	"os.Rename": true, "os.Setenv": true, "os.Chdir": true, "os.Exit": true,
	"os.File.Close": true, "os.File.Sync": true, "os.File.Write": true,
	"os.File.WriteString": true, "os.File.Read": true,
	// Terminal and logging.
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"log.Print": true, "log.Printf": true, "log.Println": true,
	"log.Fatal": true, "log.Fatalf": true, "log.Fatalln": true,
	"log.Panic": true, "log.Panicf": true, "log.Panicln": true,
	"log.Logger.Print": true, "log.Logger.Printf": true, "log.Logger.Println": true,
	// Network.
	"net.Listen": true, "net.Dial": true,
	"net/http.Get": true, "net/http.Post": true, "net/http.Head": true,
	"net/http.Server.ListenAndServe": true, "net/http.Server.Serve": true,
	"net/http.Server.Shutdown": true, "net/http.Server.Close": true,
	// Streams.
	"io.Copy": true, "io.ReadAll": true, "bufio.Writer.Flush": true,
	"encoding/json.Encoder.Encode": true,
	"encoding/csv.Writer.Write":    true, "encoding/csv.Writer.WriteAll": true,
	"encoding/csv.Writer.Flush": true,
	// Scheduling and global PRNG state.
	"time.Sleep":    true,
	"math/rand.Int": true, "math/rand.Intn": true, "math/rand.Int63": true,
	"math/rand.Int63n": true, "math/rand.Float64": true, "math/rand.Perm": true,
	"math/rand.Shuffle": true, "math/rand.Seed": true,
	"os/signal.Notify": true,
	// Shared-state synchronization primitives beyond plain mutexes.
	"sync.WaitGroup.Add": true, "sync.WaitGroup.Done": true, "sync.WaitGroup.Wait": true,
	"sync.Once.Do":   true,
	"sync.Map.Store": true, "sync.Map.Delete": true, "sync.Map.LoadOrStore": true,
	"sync/atomic.AddInt32": true, "sync/atomic.AddInt64": true,
	"sync/atomic.AddUint32": true, "sync/atomic.AddUint64": true,
	"sync/atomic.StoreInt32": true, "sync/atomic.StoreInt64": true,
	"sync/atomic.StoreUint32": true, "sync/atomic.StoreUint64": true,
	"sync/atomic.SwapInt64": true, "sync/atomic.CompareAndSwapInt32": true,
	"sync/atomic.CompareAndSwapInt64": true,
	"sync/atomic.Int64.Add":           true, "sync/atomic.Int64.Store": true,
	"sync/atomic.Int32.Add": true, "sync/atomic.Int32.Store": true,
	"sync/atomic.Uint64.Add": true, "sync/atomic.Uint64.Store": true,
	"sync/atomic.Bool.Store": true, "sync/atomic.Value.Store": true,
}

// rootRef is the outcome of classifying an expression's root: what the
// expression ultimately aliases from the enclosing function's point of
// view.
type rootRef struct {
	kind effRoot
	slot int
	sym  string // global symbol key for rootGlobal
	// drop marks an expression that aliases nothing caller-visible: a
	// fresh local, a value-typed copy, or an unattributable root (call
	// results, unresolved).
	drop bool
}

const maxRootTrace = 6

// classifyRoot resolves the root of an expression within fd: the
// receiver, a parameter, a package-level variable, or a local (traced
// through reference-typed definitions to its source).
func (es *effectState) classifyRoot(fd *funcDecl, e ast.Expr) rootRef {
	return es.classifyRootDepth(fd, e, maxRootTrace)
}

func (es *effectState) classifyRootDepth(fd *funcDecl, e ast.Expr, depth int) rootRef {
	m := es.m
	// A package-qualified selector is a foreign global.
	if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
		if base, ok := sel.X.(*ast.Ident); ok {
			if imp := importPathOf(fd.file, base.Name); imp != "" {
				return rootRef{kind: rootGlobal, sym: imp + "." + sel.Sel.Name}
			}
		}
	}
	id := rootIdent(unamp(e))
	if id == nil {
		// Composite literals and &T{...} are fresh; anything else
		// (call results, conversions) is unattributable.
		return rootRef{drop: true}
	}
	if id.Name == "_" {
		return rootRef{drop: true}
	}
	fn := fd.decl
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		for _, n := range fn.Recv.List[0].Names {
			if n.Name == id.Name {
				if _, isPtr := fn.Recv.List[0].Type.(*ast.StarExpr); isPtr {
					return rootRef{kind: rootRecv}
				}
				// Value receiver: the function owns a copy.
				return rootRef{drop: true}
			}
		}
	}
	if fn.Type.Params != nil {
		slot := 0
		for _, fld := range fn.Type.Params.List {
			n := len(fld.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				if i < len(fld.Names) && fld.Names[i].Name == id.Name {
					if es.isRefTypeExpr(fd, fld.Type) {
						return rootRef{kind: rootParam, slot: slot + i}
					}
					return rootRef{drop: true} // value copy
				}
			}
			slot += n
		}
	}
	if _, ok := m.buildIndex().vars[fd.pkg.ImportPath+"."+id.Name]; ok {
		return rootRef{kind: rootGlobal, sym: fd.pkg.ImportPath + "." + id.Name}
	}
	// A local: only reference-typed locals can alias caller state.
	if depth <= 0 {
		return rootRef{drop: true}
	}
	t := m.TypeOf(fd.pkg, fd.file, fd.decl, id)
	if t.zero() {
		return rootRef{drop: true}
	}
	if !es.isRefType(t) {
		return rootRef{drop: true} // value copy
	}
	return es.traceLocal(fd, id.Name, depth)
}

// isRefTypeExpr reports whether a type expression (interpreted in fd's
// file) is reference-like: pointer, map, slice, or channel.
func (es *effectState) isRefTypeExpr(fd *funcDecl, t ast.Expr) bool {
	if _, ok := t.(*ast.Ellipsis); ok {
		return true // variadic: a slice
	}
	return es.isRefType(Type{Expr: t, Pkg: fd.pkg, File: fd.file})
}

func (es *effectState) isRefType(t Type) bool {
	u := es.m.Underlying(t)
	switch ut := u.Expr.(type) {
	case *ast.StarExpr, *ast.MapType, *ast.ChanType:
		return true
	case *ast.ArrayType:
		return ut.Len == nil // slice
	}
	return false
}

// traceLocal follows a reference-typed local back to its definition:
// fresh allocations discharge, reference chains re-classify at their
// source, and anything else (call results, untraceable) is
// unattributable.
func (es *effectState) traceLocal(fd *funcDecl, name string, depth int) rootRef {
	var def ast.Expr
	found := false
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range s.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || lid.Name != name {
					continue
				}
				found = true
				if len(s.Rhs) == len(s.Lhs) {
					def = s.Rhs[i]
				}
				return false
			}
		case *ast.ValueSpec:
			for i, n2 := range s.Names {
				if n2.Name != name {
					continue
				}
				found = true
				if i < len(s.Values) {
					def = s.Values[i]
				}
				// No initializer: zero value, fresh by construction.
				return false
			}
		case *ast.RangeStmt:
			match := func(e ast.Expr) bool {
				id, ok := e.(*ast.Ident)
				return ok && id.Name == name
			}
			if (s.Key != nil && match(s.Key)) || (s.Value != nil && match(s.Value)) {
				found = true
				def = s.X
				return false
			}
		}
		return true
	})
	if !found {
		return rootRef{drop: true}
	}
	if def == nil {
		return rootRef{drop: true} // zero value: fresh by construction
	}
	if _, isCall := unparen(def).(*ast.CallExpr); isCall {
		// A call result — new and make included: function-local as far
		// as the caller can see.
		return rootRef{drop: true}
	}
	// Composite literals and &T{...} have no root identifier and drop in
	// classifyRootDepth: the fresh-local exemption.
	return es.classifyRootDepth(fd, def, depth-1)
}

// rootIdent unwraps selectors, indexes, derefs and parens down to the
// identifier an expression is rooted in.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// unamp strips a leading &.
func unamp(e ast.Expr) ast.Expr {
	if u, ok := unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// directEffects scans one function body for effects it performs itself
// (calls contribute via summary propagation, not here). Function-literal
// bodies are skipped, consistent with the other interprocedural rules.
func (es *effectState) directEffects(key string) []effect {
	m := es.m
	node := m.Graph().Node(key)
	if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
		return nil
	}
	fd := node.Fn
	short := m.shortKey(key)
	var out []effect
	seen := make(map[string]bool)
	add := func(e effect) {
		e.steps = []string{m.stepf(e.pos, "%s %s", short, e.desc)}
		if k := e.id(); !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}

	writeTarget := func(target ast.Expr, forceRef bool) {
		t := unparen(target)
		if _, isIdent := t.(*ast.Ident); isIdent && !forceRef {
			// Plain identifier: only a package-level variable write is
			// an effect (locals and parameter rebinds are copies).
			ref := es.classifyRoot(fd, t)
			if ref.kind == rootGlobal && !ref.drop {
				add(effect{kind: effWrite, root: rootGlobal, desc: "writes package-level " + m.shortKey(ref.sym), pos: t.Pos()})
			}
			return
		}
		// A dropped root is the fresh-local exemption, a value copy, or
		// unattributable: not an effect either way.
		if ref := es.classifyRoot(fd, t); !ref.drop {
			add(effect{kind: effWrite, root: ref.kind, slot: ref.slot, desc: "writes " + exprString(m.Fset, t), pos: t.Pos()})
		}
	}

	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if s.Tok == token.DEFINE {
					if _, isIdent := unparen(l).(*ast.Ident); isIdent {
						continue // declaration, not a write
					}
				}
				writeTarget(l, false)
			}
		case *ast.IncDecStmt:
			writeTarget(s.X, false)
		case *ast.SendStmt:
			add(effect{kind: effChan, desc: "sends on " + exprString(m.Fset, s.Chan), pos: s.Pos()})
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				add(effect{kind: effChan, desc: "receives from " + exprString(m.Fset, s.X), pos: s.Pos()})
			}
		case *ast.GoStmt:
			add(effect{kind: effGo, desc: "spawns a goroutine", pos: s.Pos()})
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "close":
					if len(s.Args) == 1 {
						add(effect{kind: effChan, desc: "closes " + exprString(m.Fset, s.Args[0]), pos: s.Pos()})
					}
					return true
				case "delete", "copy":
					if len(s.Args) >= 1 {
						writeTarget(s.Args[0], true)
					}
					return true
				case "print", "println":
					add(effect{kind: effIO, desc: "calls builtin " + id.Name, pos: s.Pos()})
					return true
				}
			}
			if sk := stdlibCallKey(m, fd, s); sk != "" && stdlibEffects[sk] {
				add(effect{kind: effIO, desc: "calls effectful stdlib " + sk, pos: s.Pos()})
			}
		}
		return true
	})

	for _, ev := range m.lockEvents(fd) {
		if !ev.acquire {
			continue
		}
		flavor := "Lock"
		if ev.rlock {
			flavor = "RLock"
		}
		add(effect{kind: effLock, desc: fmt.Sprintf("acquires %s (%s)", ev.target, flavor), pos: ev.pos})
	}
	return out
}

// recompute rebuilds one function's summary from its direct effects and
// its callees' current summaries, re-rooting write effects through the
// call sites. Monotone: entries are only ever added.
func (es *effectState) recompute(key string) bool {
	m := es.m
	node := m.Graph().Node(key)
	if node == nil || node.Fn == nil || node.Fn.decl.Body == nil {
		return false
	}
	short := m.shortKey(key)
	set := make(map[string]effect)
	var order []string
	insert := func(e effect) {
		k := e.id()
		if _, ok := set[k]; !ok {
			set[k] = e
			order = append(order, k)
		}
	}
	for _, e := range es.local[key] {
		insert(e)
	}
	callCtx := es.callContexts(node.Fn)
	for _, cs := range node.Out {
		if cs.Go {
			continue
		}
		step := m.stepf(cs.Pos, "%s calls %s", short, m.shortKey(cs.Callee))
		for _, ce := range es.sums[cs.Callee] {
			ne, keep := es.reroot(ce, callCtx[cs.Pos])
			if !keep {
				continue
			}
			ne.pos = ce.pos
			ne.steps = append([]string{step}, ce.steps...)
			insert(ne)
		}
	}
	if len(order) == len(es.sums[key]) {
		return false
	}
	out := make([]effect, 0, len(order))
	for _, k := range order {
		out = append(out, set[k])
	}
	// Sorted summaries keep downstream iteration (and witness selection)
	// deterministic regardless of which round inserted an entry.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.root != b.root {
			return a.root < b.root
		}
		return a.slot < b.slot
	})
	es.sums[key] = out
	return true
}

// callRoots captures, for one call site, the classification of the
// receiver expression and each argument in the caller's context.
type callRoots struct {
	recv rootRef
	args []rootRef
}

// callContexts builds the per-call-site re-rooting table for a function
// (cached: the fixpoint revisits functions, the AST walk need not).
func (es *effectState) callContexts(fd *funcDecl) map[token.Pos]callRoots {
	if got, ok := es.callCtx[fd]; ok {
		return got
	}
	out := make(map[token.Pos]callRoots)
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cr := callRoots{recv: rootRef{drop: true}}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if base, isID := sel.X.(*ast.Ident); !isID || importPathOf(fd.file, base.Name) == "" {
				cr.recv = es.classifyRoot(fd, sel.X)
			}
		}
		cr.args = make([]rootRef, len(call.Args))
		for i, a := range call.Args {
			cr.args[i] = es.classifyRoot(fd, a)
		}
		out[call.Pos()] = cr
		return true
	})
	es.callCtx[fd] = out
	return out
}

// reroot lifts a callee effect into the caller: ambient effects (chan,
// go, lock, io) carry over unchanged; write effects re-root through the
// call's receiver/argument expressions, discharging against fresh
// locals and dropping when unattributable.
func (es *effectState) reroot(ce effect, cr callRoots) (effect, bool) {
	if ce.kind != effWrite {
		return ce, true
	}
	var ref rootRef
	switch ce.root {
	case rootGlobal:
		return ce, true
	case rootRecv:
		ref = cr.recv
	case rootParam:
		if ce.slot >= len(cr.args) {
			ref = rootRef{drop: true} // variadic/mismatch: unattributable
		} else {
			ref = cr.args[ce.slot]
		}
	}
	if ref.drop {
		return effect{}, false
	}
	ce.root = ref.kind
	ce.slot = ref.slot
	return ce, true
}

// pureModule reports every effect in the summary of a conflint:pure
// function, chained through the calls that realize it.
func pureModule(m *Module) []Finding {
	es := buildEffects(m)
	var out []Finding
	for _, root := range es.pureRoots {
		node := m.Graph().Node(root)
		if node == nil || node.Fn == nil {
			continue
		}
		pos := m.Fset.Position(node.Fn.decl.Name.Pos())
		short := m.shortKey(root)
		for _, e := range es.sums[root] {
			witness := append([]string(nil), e.steps...)
			out = append(out, Finding{
				Rule: "pure", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("%s is declared conflint:pure but has a side effect: %s (%s)",
					short, e.desc, m.relPos(m.Fset.Position(e.pos))),
				Hint:    "make the effect function-local (fresh allocation), lift it out of the pure closure, or drop the conflint:pure contract",
				Witness: witness,
			})
		}
	}
	return out
}

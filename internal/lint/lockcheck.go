// The lock-discipline analyzer guards PR 1's concurrency contract: the
// engine's read path shares mu.RLock while configuration changes take the
// writer side. The invariant is declared in the source with a
// machine-readable field annotation (the same shape as gVisor's
// checklocks):
//
//	type Engine struct {
//		mu sync.RWMutex
//		current conf.Configuration // conflint:guardedby mu
//	}
//
// Rules enforced:
//
//  1. a struct with a sync.Mutex/RWMutex field must annotate which fields
//     that mutex guards (an unguarded mutex is either dead weight or an
//     undocumented invariant — both findings);
//  2. an exported method that touches a guarded field must acquire the
//     guarding mutex in its body — the writer side (Lock) for writes, at
//     least the reader side (RLock) for reads;
//  3. every Lock/RLock acquisition must be released in the same function,
//     by defer or by a plain call — a lock that escapes a function is a
//     deadlock waiting for an early return;
//  4. an unexported method that writes a guarded field without acquiring
//     its mutex documents "caller holds mu", and the callers are held to
//     it: every resolved caller must acquire that mutex class somewhere
//     in its body, unless it is itself an unexported method of the same
//     type, which then inherits the requirement (a fixpoint over the
//     call graph). A method with no resolved caller is not judged. Reads
//     are left out: an unlocked read after a join (WaitGroup.Wait, a
//     closed channel) is race-free and common — the benchmark's
//     retuner.stop and transitionMS read their results that way.
//
// The analysis is flow-insensitive: it checks that the right
// acquisitions exist somewhere in the function body, not that they
// dominate every access or call. That catches the realistic failure (a
// new method that forgets locking entirely, or takes RLock and then
// writes) without a dataflow engine. All four rules read the lock events
// lockorder scans (lockEvents): rules 2 and 3 match them by target
// expression ("e.mu"), rule 4 by lock class.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

const guardedByDirective = "conflint:guardedby"

// LockCheck returns the lock-discipline analyzer.
func LockCheck() *Analyzer {
	return &Analyzer{
		Name: "lock",
		Doc:  "guarded fields (conflint:guardedby) must be accessed under their mutex in exported methods and by the callers of unexported ones; every Lock has a same-function release",
		Run:  lockModule,
	}
}

// guardedStruct is one annotated (or annotation-missing) struct.
type guardedStruct struct {
	name    string
	mutexes map[string]bool // sync.Mutex / sync.RWMutex field names
	// guards maps field name -> guarding mutex field name.
	guards map[string]string
	plain  bool // has a named field that is neither a mutex nor guarded
	pos    token.Pos
}

func lockModule(m *Module) []Finding {
	var out []Finding
	// needs maps an unexported method to the lock classes its callers
	// must hold, each with the witness that realizes the need.
	needs := make(map[string]map[string][]string)
	for _, p := range m.Pkgs {
		structs := make(map[string]*guardedStruct) // by bare type name
		for _, f := range p.Files {
			for _, d := range f.AST.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							if gs := scanStruct(f, ts.Name.Name, st); gs != nil {
								structs[gs.name] = gs
							}
						}
					}
				}
			}
		}
		out = append(out, checkAnnotations(m.Fset, structs)...)
		// Rules 2 and 3 over every function, and rule 4's seeds.
		for _, f := range p.Files {
			for _, fn := range fileFuncs(f) {
				fd := &funcDecl{pkg: p, file: f, decl: fn}
				events := m.lockEvents(fd)
				out = append(out, checkLockPairing(m.Fset, fn, events)...)
				gs := receiverStruct(structs, fn)
				if gs == nil {
					continue
				}
				if fn.Name.IsExported() {
					out = append(out, checkGuardedAccess(m.Fset, f, fn, gs, events)...)
					continue
				}
				key := funcKey(p, fn)
				for _, acc := range guardedAccesses(f, fn, gs) {
					if class := p.ImportPath + "." + gs.name + "." + gs.guards[acc.field]; acc.write && !acquires(events, class) {
						addNeed(needs, key, class, []string{m.stepf(acc.pos, "%s writes %s unlocked", m.shortKey(key), exprString(m.Fset, acc.sel))})
					}
				}
			}
		}
	}
	return append(out, m.checkCallers(needs)...)
}

// checkAnnotations enforces rule 1: a mutex-bearing struct with other
// fields must say what the mutex guards, with a mutex it has.
func checkAnnotations(fset *token.FileSet, structs map[string]*guardedStruct) []Finding {
	var out []Finding
	for _, gs := range structs {
		pos := fset.Position(gs.pos)
		if len(gs.guards) == 0 && gs.plain {
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("struct %s has a mutex but no conflint:guardedby annotations: the lock protocol is not machine-checkable", gs.name),
				Hint:    "tag each guarded field with `// conflint:guardedby <mutexField>`",
			})
		}
		for field, mu := range gs.guards {
			if !gs.mutexes[mu] {
				out = append(out, Finding{
					Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: fmt.Sprintf("field %s.%s is guardedby %q, but the struct has no such mutex field", gs.name, field, mu),
				})
			}
		}
	}
	return out
}

// acquires reports whether a function's lock events acquire a class.
func acquires(events []*lockEvent, class string) bool {
	for _, ev := range events {
		if ev.acquire && ev.class == class {
			return true
		}
	}
	return false
}

// addNeed records that key's callers must hold class, with its witness,
// unless that is already recorded; it reports whether it recorded.
func addNeed(needs map[string]map[string][]string, key, class string, steps []string) bool {
	if needs[key][class] != nil {
		return false
	}
	if needs[key] == nil {
		needs[key] = make(map[string][]string)
	}
	needs[key][class] = steps
	return true
}

// checkCallers enforces rule 4. It drives the needs to a fixpoint — an
// unexported method of the class's own type that calls a needy callee
// without acquiring the class inherits the need, with the call prepended
// to the witness — then reports every other caller that calls a needy
// function without acquiring the class it needs.
func (m *Module) checkCallers(needs map[string]map[string][]string) []Finding {
	g := m.Graph()
	inherits := func(key, class string) bool {
		fd := g.Node(key).Fn
		return fd != nil && fd.decl.Recv != nil && !fd.decl.Name.IsExported() &&
			strings.HasPrefix(class, fd.pkg.ImportPath+"."+baseTypeName(fd.decl.Recv.List[0].Type)+".")
	}
	// unmet visits each call site of key whose callee needs a class that
	// key neither acquires nor needs itself, with the witness from the
	// call down to the unlocked write.
	unmet := func(key string, visit func(cs *CallSite, class string, steps []string)) {
		fd := g.Node(key).Fn
		if fd == nil || fd.decl.Body == nil {
			return
		}
		for _, cs := range g.Node(key).Out {
			sub := needs[cs.Callee]
			for _, class := range sortedKeys(sub) {
				if needs[key][class] == nil && !acquires(m.lockEvents(fd), class) {
					visit(cs, class, append([]string{m.stepf(cs.Pos, "%s calls %s", m.shortKey(key), m.shortKey(cs.Callee))}, sub[class]...))
				}
			}
		}
	}
	m.fixpoint(g.Keys(), func(key string) bool {
		changed := false
		unmet(key, func(_ *CallSite, class string, steps []string) {
			changed = inherits(key, class) && addNeed(needs, key, class, steps) || changed
		})
		return changed
	})
	var out []Finding
	for _, key := range g.Keys() {
		unmet(key, func(cs *CallSite, class string, steps []string) {
			pos := m.Fset.Position(cs.Pos)
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("%s calls %s, which needs %s held, and never acquires it", m.shortKey(key), m.shortKey(cs.Callee), m.shortKey(class)),
				Hint:    fmt.Sprintf("acquire %s around the call, or take it inside the callee", m.shortKey(class)),
				Witness: steps,
			})
		})
	}
	return out
}

// scanStruct collects mutex fields and guardedby annotations; returns nil
// when the struct has no mutex fields.
func scanStruct(f *File, name string, st *ast.StructType) *guardedStruct {
	gs := &guardedStruct{name: name, mutexes: make(map[string]bool), guards: make(map[string]string), pos: st.Pos()}
	for _, fld := range st.Fields.List {
		_, isMu := mutexType(f, fld.Type)
		mu := guardAnnotation(fld)
		for _, n := range fld.Names {
			switch {
			case isMu:
				gs.mutexes[n.Name] = true
			case mu != "":
				gs.guards[n.Name] = mu
			default:
				gs.plain = true
			}
		}
	}
	if len(gs.mutexes) == 0 {
		return nil
	}
	return gs
}

// mutexType recognizes sync.Mutex and sync.RWMutex (optionally pointer).
func mutexType(f *File, t ast.Expr) (rw, ok bool) {
	if st, isPtr := t.(*ast.StarExpr); isPtr {
		t = st.X
	}
	sel, isSel := t.(*ast.SelectorExpr)
	if !isSel {
		return false, false
	}
	base, isIdent := sel.X.(*ast.Ident)
	if !isIdent || importPathOf(f, base.Name) != "sync" {
		return false, false
	}
	switch sel.Sel.Name {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// guardAnnotation extracts `conflint:guardedby <mu>` from a field's doc
// or trailing comment.
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, guardedByDirective); ok {
				return strings.TrimSpace(strings.SplitN(strings.TrimSpace(rest), " ", 2)[0])
			}
		}
	}
	return ""
}

// receiverStruct maps a method to its receiver's guarded struct.
func receiverStruct(structs map[string]*guardedStruct, fn *ast.FuncDecl) *guardedStruct {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	return structs[baseTypeName(fn.Recv.List[0].Type)]
}

// checkLockPairing enforces rule 3: every acquisition has a same-function
// release of the matching flavor on the same target.
func checkLockPairing(fset *token.FileSet, fn *ast.FuncDecl, events []*lockEvent) []Finding {
	released := make(map[lockEvent]bool)
	for _, ev := range events {
		if !ev.acquire {
			released[lockEvent{rlock: ev.rlock, target: ev.target}] = true
		}
	}
	var out []Finding
	for _, ev := range events {
		k := lockEvent{rlock: ev.rlock, target: ev.target}
		if !ev.acquire || released[k] {
			continue
		}
		released[k] = true // one finding per target and flavor
		acq, rel, what := "Lock", "Unlock", "lock"
		if ev.rlock {
			acq, rel, what = "RLock", "RUnlock", "read lock"
		}
		pos := fset.Position(ev.pos)
		out = append(out, Finding{
			Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("%s.%s() without %s.%s() in %s: the %s escapes the function", ev.target, acq, ev.target, rel, fn.Name.Name, what),
			Hint:    fmt.Sprintf("add `defer %s.%s()` right after the acquisition", ev.target, rel),
		})
	}
	return out
}

// fieldAccess is one use of a guarded field inside a method body.
type fieldAccess struct {
	sel   *ast.SelectorExpr // recv.field
	field string
	write bool
	pos   token.Pos
}

// checkGuardedAccess enforces rule 2 on one exported method.
func checkGuardedAccess(fset *token.FileSet, f *File, fn *ast.FuncDecl, gs *guardedStruct, events []*lockEvent) []Finding {
	var out []Finding
	for _, acc := range guardedAccesses(f, fn, gs) {
		target := exprString(fset, acc.sel.X) + "." + gs.guards[acc.field]
		hasL, hasRL := false, false
		for _, ev := range events {
			hasL = hasL || ev.acquire && !ev.rlock && ev.target == target
			hasRL = hasRL || ev.acquire && ev.rlock && ev.target == target
		}
		pos := fset.Position(acc.pos)
		switch {
		case acc.write && !hasL:
			msg := fmt.Sprintf("exported method %s writes guarded field %s without holding %s.Lock()", fn.Name.Name, exprString(fset, acc.sel), target)
			if hasRL {
				msg = fmt.Sprintf("exported method %s writes guarded field %s under %s.RLock(): writers need the exclusive side", fn.Name.Name, exprString(fset, acc.sel), target)
			}
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: msg,
				Hint:    fmt.Sprintf("acquire %s.Lock() (with defer %s.Unlock()) before the write", target, target),
			})
		case !acc.write && !hasL && !hasRL:
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("exported method %s reads guarded field %s without holding %s", fn.Name.Name, exprString(fset, acc.sel), target),
				Hint:    fmt.Sprintf("acquire %s.RLock() (with defer %s.RUnlock()) before the read", target, target),
			})
		}
	}
	return out
}

// guardedAccesses finds a method's recv.field uses of guarded fields,
// classifying writes: assignment LHS (including recv.f[k] = v), ++/--,
// and &recv.f aliasing.
func guardedAccesses(f *File, fn *ast.FuncDecl, gs *guardedStruct) []fieldAccess {
	names := fn.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	var out []fieldAccess
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if base, ok := sel.X.(*ast.Ident); !ok || base.Name != names[0].Name {
			return true
		}
		if _, guarded := gs.guards[sel.Sel.Name]; guarded {
			out = append(out, fieldAccess{sel: sel, field: sel.Sel.Name, write: isWriteContext(f, sel), pos: sel.Pos()})
		}
		return true
	})
	return out
}

// isWriteContext reports whether a selector is written: direct assignment
// target, indexed assignment target, inc/dec, or address-taken.
func isWriteContext(f *File, sel *ast.SelectorExpr) bool {
	var node ast.Node = sel
	for {
		par := f.Parent(node)
		switch p := par.(type) {
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == node {
					return true
				}
			}
			return false
		case *ast.IndexExpr:
			if p.X != node {
				return false
			}
			node = p // recv.f[k]: a write iff the index expr is assigned
		case *ast.IncDecStmt:
			return true
		case *ast.UnaryExpr:
			return p.Op == token.AND
		default:
			return false
		}
	}
}

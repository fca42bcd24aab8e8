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
//     least the reader side (RLock) for reads. Unexported methods are
//     exempt by convention: they document "caller holds mu";
//  3. every Lock/RLock acquisition must be released in the same function,
//     by defer or by a plain call — a lock that escapes a function is a
//     deadlock waiting for an early return.
//
// The analysis is per-function and flow-insensitive: it checks that the
// right acquisitions exist somewhere in the method body, not that they
// dominate every access. That catches the realistic failure (a new
// exported method that forgets locking entirely, or takes RLock and then
// writes) without a dataflow engine.
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
		Doc:  "guarded fields (conflint:guardedby) must be accessed under their mutex in exported methods; every Lock has a same-function release",
		Run:  perPackage(checkLocks),
	}
}

// mutexField is one sync.Mutex / sync.RWMutex struct field.
type mutexField struct {
	name   string
	rw     bool // sync.RWMutex
	fldPos token.Pos
}

// guardedStruct is one annotated (or annotation-missing) struct.
type guardedStruct struct {
	name    string
	mutexes []mutexField
	// guards maps field name -> guarding mutex field name.
	guards map[string]string
	pos    token.Pos
	file   *File
}

func checkLocks(p *Package) []Finding {
	m := p.Mod
	fset := m.Fset
	var out []Finding

	structs := make(map[string]*guardedStruct) // by bare type name
	for _, f := range p.Files {
		for _, d := range f.AST.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				gs := scanStruct(f, ts.Name.Name, st)
				if gs != nil {
					structs[gs.name] = gs
				}
			}
		}
	}

	// Rule 1: a mutex-bearing struct with other fields must say what the
	// mutex guards.
	for _, gs := range structs {
		if len(gs.guards) == 0 && structHasPlainFields(gs) {
			pos := fset.Position(gs.pos)
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("struct %s has a mutex but no conflint:guardedby annotations: the lock protocol is not machine-checkable", gs.name),
				Hint:    "tag each guarded field with `// conflint:guardedby <mutexField>`",
			})
		}
		for field, mu := range gs.guards {
			if !hasMutex(gs, mu) {
				pos := fset.Position(gs.pos)
				out = append(out, Finding{
					Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: fmt.Sprintf("field %s.%s is guardedby %q, but the struct has no such mutex field", gs.name, field, mu),
				})
			}
		}
	}

	// Rules 2 and 3 over every function.
	for _, f := range p.Files {
		for _, fn := range fileFuncs(f) {
			out = append(out, checkLockPairing(fset, f, fn)...)
			gs := receiverStruct(structs, fn)
			if gs == nil || !fn.Name.IsExported() {
				continue
			}
			out = append(out, checkGuardedAccess(fset, f, fn, gs)...)
		}
	}
	return out
}

// scanStruct collects mutex fields and guardedby annotations; returns nil
// when the struct has no mutex fields.
func scanStruct(f *File, name string, st *ast.StructType) *guardedStruct {
	gs := &guardedStruct{name: name, guards: make(map[string]string), pos: st.Pos(), file: f}
	for _, fld := range st.Fields.List {
		if rw, ok := mutexType(f, fld.Type); ok {
			for _, n := range fld.Names {
				gs.mutexes = append(gs.mutexes, mutexField{name: n.Name, rw: rw, fldPos: n.Pos()})
			}
			continue
		}
		mu := guardAnnotation(fld)
		if mu == "" {
			continue
		}
		for _, n := range fld.Names {
			gs.guards[n.Name] = mu
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

func hasMutex(gs *guardedStruct, name string) bool {
	for _, mu := range gs.mutexes {
		if mu.name == name {
			return true
		}
	}
	return false
}

// structHasPlainFields reports whether the struct has any non-mutex,
// non-annotated field — the case where missing annotations matter.
func structHasPlainFields(gs *guardedStruct) bool {
	st, ok := gs.file.astStruct(gs.pos)
	if !ok {
		return false
	}
	n := 0
	for _, fld := range st.Fields.List {
		n += len(fld.Names)
	}
	return n > len(gs.mutexes)
}

// astStruct finds the struct type node at a position (helper for
// structHasPlainFields).
func (f *File) astStruct(pos token.Pos) (*ast.StructType, bool) {
	var found *ast.StructType
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok && st.Pos() == pos {
			found = st
			return false
		}
		return true
	})
	return found, found != nil
}

// receiverStruct maps a method to its receiver's guarded struct.
func receiverStruct(structs map[string]*guardedStruct, fn *ast.FuncDecl) *guardedStruct {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	return structs[baseTypeName(fn.Recv.List[0].Type)]
}

// lockOps describes the acquisitions and releases present in a function,
// keyed by the rendered mutex expression ("e.mu", "em").
type lockOps struct {
	lock, rlock, unlock, runlock map[string]token.Pos
}

func scanLockOps(fset *token.FileSet, body *ast.BlockStmt) lockOps {
	ops := lockOps{
		lock: map[string]token.Pos{}, rlock: map[string]token.Pos{},
		unlock: map[string]token.Pos{}, runlock: map[string]token.Pos{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		target := exprString(fset, sel.X)
		switch sel.Sel.Name {
		case "Lock":
			ops.lock[target] = call.Pos()
		case "RLock":
			ops.rlock[target] = call.Pos()
		case "Unlock":
			ops.unlock[target] = call.Pos()
		case "RUnlock":
			ops.runlock[target] = call.Pos()
		}
		return true
	})
	return ops
}

// checkLockPairing enforces rule 3: every acquisition has a same-function
// release of the matching flavor.
func checkLockPairing(fset *token.FileSet, f *File, fn *ast.FuncDecl) []Finding {
	ops := scanLockOps(fset, fn.Body)
	var out []Finding
	for target, at := range ops.lock {
		if _, ok := ops.unlock[target]; !ok {
			pos := fset.Position(at)
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("%s.Lock() without %s.Unlock() in %s: the lock escapes the function", target, target, fn.Name.Name),
				Hint:    fmt.Sprintf("add `defer %s.Unlock()` right after the acquisition", target),
			})
		}
	}
	for target, at := range ops.rlock {
		if _, ok := ops.runlock[target]; !ok {
			pos := fset.Position(at)
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("%s.RLock() without %s.RUnlock() in %s: the read lock escapes the function", target, target, fn.Name.Name),
				Hint:    fmt.Sprintf("add `defer %s.RUnlock()` right after the acquisition", target),
			})
		}
	}
	return out
}

// fieldAccess is one use of a guarded field inside a method body.
type fieldAccess struct {
	field string
	write bool
	pos   token.Pos
}

// checkGuardedAccess enforces rule 2 on one exported method.
func checkGuardedAccess(fset *token.FileSet, f *File, fn *ast.FuncDecl, gs *guardedStruct) []Finding {
	recvName := ""
	if names := fn.Recv.List[0].Names; len(names) > 0 {
		recvName = names[0].Name
	}
	if recvName == "" || recvName == "_" {
		return nil
	}
	accesses := guardedAccesses(f, fn, recvName, gs)
	if len(accesses) == 0 {
		return nil
	}
	ops := scanLockOps(fset, fn.Body)
	var out []Finding
	for _, acc := range accesses {
		mu := gs.guards[acc.field]
		target := recvName + "." + mu
		_, hasL := ops.lock[target]
		_, hasRL := ops.rlock[target]
		pos := fset.Position(acc.pos)
		switch {
		case acc.write && !hasL:
			msg := fmt.Sprintf("exported method %s writes guarded field %s.%s without holding %s.Lock()", fn.Name.Name, recvName, acc.field, target)
			if hasRL {
				msg = fmt.Sprintf("exported method %s writes guarded field %s.%s under %s.RLock(): writers need the exclusive side", fn.Name.Name, recvName, acc.field, target)
			}
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: msg,
				Hint:    fmt.Sprintf("acquire %s.Lock() (with defer %s.Unlock()) before the write", target, target),
			})
		case !acc.write && !hasL && !hasRL:
			out = append(out, Finding{
				Rule: "lock", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("exported method %s reads guarded field %s.%s without holding %s", fn.Name.Name, recvName, acc.field, target),
				Hint:    fmt.Sprintf("acquire %s.RLock() (with defer %s.RUnlock()) before the read", target, target),
			})
		}
	}
	return out
}

// guardedAccesses finds recv.field uses of guarded fields, classifying
// writes: assignment LHS (including recv.f[k] = v), ++/--, and &recv.f
// aliasing.
func guardedAccesses(f *File, fn *ast.FuncDecl, recvName string, gs *guardedStruct) []fieldAccess {
	var out []fieldAccess
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || base.Name != recvName {
			return true
		}
		if _, guarded := gs.guards[sel.Sel.Name]; !guarded {
			return true
		}
		out = append(out, fieldAccess{field: sel.Sel.Name, write: isWriteContext(f, sel), pos: sel.Pos()})
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

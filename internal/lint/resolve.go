// Lightweight name resolution: enough static typing to answer the
// analyzers' questions — "is this expression a map?", "what named type is
// this selector's base?", "does this call's last result carry an error?" —
// without go/types or export data. Resolution is best-effort and
// conservative: anything it cannot see resolves to the zero Type, and
// analyzers treat an unresolved type as "emit nothing".
package lint

import (
	"go/ast"
	"go/printer"
	"go/token"
	"path"
	"strings"
)

// Type is a resolved type: a syntactic type expression plus the package
// whose import table interprets its identifiers.
type Type struct {
	Expr ast.Expr
	Pkg  *Package
	File *File
}

func (t Type) zero() bool { return t.Expr == nil }

// index holds the module-wide symbol tables, built once on demand.
type index struct {
	// types maps "importPath.Name" to the type declaration.
	types map[string]*typeDecl
	// funcs maps "importPath.Name" to package-level functions.
	funcs map[string]*funcDecl
	// methods maps "importPath.Recv.Name" to methods (Recv is the bare
	// receiver type name, pointers stripped).
	methods map[string]*funcDecl
	// vars maps "importPath.Name" to package-level var/const specs.
	vars map[string]*varDecl
}

type typeDecl struct {
	pkg  *Package
	file *File
	spec *ast.TypeSpec
}

type funcDecl struct {
	pkg  *Package
	file *File
	decl *ast.FuncDecl
}

type varDecl struct {
	pkg   *Package
	file  *File
	typ   ast.Expr // nil when inferred
	value ast.Expr // nil when no initializer for this name
}

func (m *Module) buildIndex() *index {
	if m.idx != nil {
		return m.idx
	}
	idx := &index{
		types:   make(map[string]*typeDecl),
		funcs:   make(map[string]*funcDecl),
		methods: make(map[string]*funcDecl),
		vars:    make(map[string]*varDecl),
	}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.AST.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fd := &funcDecl{pkg: p, file: f, decl: d}
					if d.Recv == nil || len(d.Recv.List) == 0 {
						idx.funcs[p.ImportPath+"."+d.Name.Name] = fd
					} else if rn := baseTypeName(d.Recv.List[0].Type); rn != "" {
						idx.methods[p.ImportPath+"."+rn+"."+d.Name.Name] = fd
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							idx.types[p.ImportPath+"."+s.Name.Name] = &typeDecl{pkg: p, file: f, spec: s}
						case *ast.ValueSpec:
							for i, n := range s.Names {
								var val ast.Expr
								if i < len(s.Values) {
									val = s.Values[i]
								}
								idx.vars[p.ImportPath+"."+n.Name] = &varDecl{pkg: p, file: f, typ: s.Type, value: val}
							}
						}
					}
				}
			}
		}
	}
	m.idx = idx
	return idx
}

// baseTypeName strips pointers/parens/generics from a receiver type.
func baseTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// fileFuncs returns the file's function declarations with bodies.
func fileFuncs(f *File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.AST.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
			out = append(out, fn)
		}
	}
	return out
}

// importPathOf resolves a package identifier within a file to its import
// path ("" when the ident is not an import).
func importPathOf(f *File, name string) string {
	for _, imp := range f.AST.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == name {
			return p
		}
	}
	return ""
}

// stdlibCallKey is the one selector-to-stdlib resolver: it names a call's
// target the way the stdlib tables are keyed ("importPath.Func",
// "importPath.Type.Method"), or "" when the call is unresolvable or into
// the module — module callees resolve through the call graph instead.
func stdlibCallKey(m *Module, fd *funcDecl, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	key := ""
	if base, ok := sel.X.(*ast.Ident); ok {
		key = importPathOf(fd.file, base.Name)
	}
	if key == "" {
		key = m.NamedKey(m.TypeOf(fd.pkg, fd.file, fd.decl, sel.X))
	}
	if key == "" || key == m.Path || strings.HasPrefix(key, m.Path+"/") || strings.HasPrefix(key, m.Path+".") {
		return ""
	}
	return key + "." + sel.Sel.Name
}

// exprString renders an expression compactly ("e.mu", "w.e.mu") for
// matching lock/unlock pairs.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	// printer.Fprint never fails on a bytes-like writer.
	_ = printer.Fprint(&b, fset, e)
	return b.String()
}

const maxResolveDepth = 24

// resolver carries the context of one resolution walk.
type resolver struct {
	m     *Module
	pkg   *Package
	file  *File
	fn    *ast.FuncDecl // enclosing function, may be nil
	depth int
}

// TypeOf resolves the static type of expr as written inside fn (which may
// be nil for package-level contexts) in file f of package p.
func (m *Module) TypeOf(p *Package, f *File, fn *ast.FuncDecl, expr ast.Expr) Type {
	r := &resolver{m: m, pkg: p, file: f, fn: fn}
	return r.typeOf(expr)
}

func (r *resolver) typeOf(expr ast.Expr) Type {
	if r.depth++; r.depth > maxResolveDepth {
		return Type{}
	}
	defer func() { r.depth-- }()

	switch e := expr.(type) {
	case *ast.ParenExpr:
		return r.typeOf(e.X)
	case *ast.StarExpr:
		t := r.typeOf(e.X)
		return r.deref(t)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return r.typeOf(e.X) // pointer-insensitive
		}
		return r.typeOf(e.X)
	case *ast.Ident:
		return r.identType(e)
	case *ast.SelectorExpr:
		return r.selectorType(e)
	case *ast.CallExpr:
		return r.callType(e)
	case *ast.CompositeLit:
		if e.Type != nil {
			return Type{Expr: e.Type, Pkg: r.pkg, File: r.file}
		}
	case *ast.IndexExpr:
		base := r.m.Underlying(r.typeOf(e.X))
		switch bt := base.Expr.(type) {
		case *ast.MapType:
			return Type{Expr: bt.Value, Pkg: base.Pkg, File: base.File}
		case *ast.ArrayType:
			return Type{Expr: bt.Elt, Pkg: base.Pkg, File: base.File}
		}
	case *ast.TypeAssertExpr:
		if e.Type != nil {
			return Type{Expr: e.Type, Pkg: r.pkg, File: r.file}
		}
	}
	return Type{}
}

// deref strips one pointer level from a type.
func (r *resolver) deref(t Type) Type {
	if st, ok := t.Expr.(*ast.StarExpr); ok {
		return Type{Expr: st.X, Pkg: t.Pkg, File: t.File}
	}
	return t
}

// identType resolves a plain identifier: receiver, parameter, local
// declaration, range variable, or package-level symbol.
func (r *resolver) identType(id *ast.Ident) Type {
	if r.fn != nil {
		// Receiver and parameters/results.
		for _, fl := range fieldLists(r.fn) {
			for _, fld := range fl {
				for _, n := range fld.Names {
					if n.Name == id.Name {
						return Type{Expr: fld.Type, Pkg: r.pkg, File: r.file}
					}
				}
			}
		}
		// Local declarations anywhere in the body. Go scoping would
		// demand dominance analysis; taking the first match is the
		// lightweight approximation.
		if t := r.localDecl(r.fn.Body, id.Name); !t.zero() {
			return t
		}
	}
	// Package-level symbol.
	idx := r.m.buildIndex()
	if v, ok := idx.vars[r.pkg.ImportPath+"."+id.Name]; ok {
		return r.varType(v)
	}
	return Type{}
}

func fieldLists(fn *ast.FuncDecl) [][]*ast.Field {
	var out [][]*ast.Field
	if fn.Recv != nil {
		out = append(out, fn.Recv.List)
	}
	if fn.Type.Params != nil {
		out = append(out, fn.Type.Params.List)
	}
	if fn.Type.Results != nil {
		out = append(out, fn.Type.Results.List)
	}
	return out
}

func (r *resolver) varType(v *varDecl) Type {
	if v.typ != nil {
		return Type{Expr: v.typ, Pkg: v.pkg, File: v.file}
	}
	if v.value != nil {
		sub := &resolver{m: r.m, pkg: v.pkg, file: v.file, depth: r.depth}
		return sub.typeOf(v.value)
	}
	return Type{}
}

// localDecl finds the type of a name declared inside a statement block.
func (r *resolver) localDecl(body *ast.BlockStmt, name string) Type {
	if body == nil {
		return Type{}
	}
	var found Type
	ast.Inspect(body, func(n ast.Node) bool {
		if !found.zero() {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range s.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || lid.Name != name {
					continue
				}
				if len(s.Rhs) == len(s.Lhs) {
					found = r.typeOf(s.Rhs[i])
				} else if len(s.Rhs) == 1 {
					found = r.resultType(s.Rhs[0], i)
				}
				return false
			}
		case *ast.ValueSpec:
			for i, n2 := range s.Names {
				if n2.Name != name {
					continue
				}
				if s.Type != nil {
					found = Type{Expr: s.Type, Pkg: r.pkg, File: r.file}
				} else if i < len(s.Values) {
					found = r.typeOf(s.Values[i])
				}
				return false
			}
		case *ast.RangeStmt:
			named := func(e ast.Expr) bool {
				id, ok := e.(*ast.Ident)
				return ok && id.Name == name
			}
			// Resolve the ranged expression only for a range that declares
			// the name: each level of a definition chain would otherwise
			// resolve every range in the body.
			if !named(s.Key) && !named(s.Value) {
				return true
			}
			base := r.m.Underlying(r.typeOf(s.X))
			switch bt := base.Expr.(type) {
			case *ast.MapType:
				found = Type{Expr: bt.Value, Pkg: base.Pkg, File: base.File}
				if named(s.Key) {
					found.Expr = bt.Key
				}
			case *ast.ArrayType:
				if named(s.Value) {
					found = Type{Expr: bt.Elt, Pkg: base.Pkg, File: base.File}
				}
			}
		}
		return true
	})
	return found
}

// resultType resolves result i of a (possibly multi-valued) expression.
func (r *resolver) resultType(e ast.Expr, i int) Type {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		if i == 0 {
			return r.typeOf(e)
		}
		return Type{}
	}
	sig, declPkg, declFile := r.signatureOf(call)
	if sig == nil || sig.Results == nil {
		return Type{}
	}
	n := 0
	for _, fld := range sig.Results.List {
		c := len(fld.Names)
		if c == 0 {
			c = 1
		}
		if i < n+c {
			return Type{Expr: fld.Type, Pkg: declPkg, File: declFile}
		}
		n += c
	}
	return Type{}
}

// stdlibCtorResults maps stdlib constructor functions to the bare name of
// the type they return, in the same package. This is what lets
// `json.NewEncoder(w).Encode(...)` resolve to encoding/json.Encoder
// without go/types.
var stdlibCtorResults = map[string]string{
	"encoding/json.NewEncoder": "Encoder",
	"encoding/json.NewDecoder": "Decoder",
	"encoding/csv.NewWriter":   "Writer",
	"encoding/csv.NewReader":   "Reader",
	"bufio.NewWriter":          "Writer",
	"bufio.NewReader":          "Reader",
	"bufio.NewScanner":         "Scanner",
	"strings.NewReplacer":      "Replacer",
}

// callType resolves the type of a call's single result, handling the
// builtins the analyzers care about.
func (r *resolver) callType(call *ast.CallExpr) Type {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if base, ok := sel.X.(*ast.Ident); ok {
			if imp := importPathOf(r.file, base.Name); imp != "" {
				if tn, ok := stdlibCtorResults[imp+"."+sel.Sel.Name]; ok {
					// Synthesized selector reuses the call site's local
					// import name, so NamedKey round-trips to imp+"."+tn.
					return Type{
						Expr: &ast.SelectorExpr{X: ast.NewIdent(base.Name), Sel: ast.NewIdent(tn)},
						Pkg:  r.pkg, File: r.file,
					}
				}
			}
		}
		// x.Load() on an atomic.Pointer[T] yields *T: the snapshot
		// pointers (engine.cur, gateway.tunerP) are all read this way.
		if sel.Sel.Name == "Load" {
			recv := r.typeOf(sel.X)
			if ix, ok := recv.Expr.(*ast.IndexExpr); ok &&
				r.m.NamedKey(Type{Expr: ix.X, Pkg: recv.Pkg, File: recv.File}) == "sync/atomic.Pointer" {
				return Type{Expr: &ast.StarExpr{X: ix.Index}, Pkg: recv.Pkg, File: recv.File}
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if len(call.Args) > 0 {
				return Type{Expr: call.Args[0], Pkg: r.pkg, File: r.file}
			}
		case "append":
			if len(call.Args) > 0 {
				return r.typeOf(call.Args[0])
			}
		case "new":
			if len(call.Args) > 0 {
				return Type{Expr: &ast.StarExpr{X: call.Args[0]}, Pkg: r.pkg, File: r.file}
			}
		case "len", "cap":
			return Type{}
		}
	}
	return r.resultType(call, 0)
}

// signatureOf resolves a call's target signature within the module.
// Stdlib calls resolve to nil (the analyzers use lookup tables for those).
func (r *resolver) signatureOf(call *ast.CallExpr) (*ast.FuncType, *Package, *File) {
	idx := r.m.buildIndex()
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fd, ok := idx.funcs[r.pkg.ImportPath+"."+fun.Name]; ok {
			return fd.decl.Type, fd.pkg, fd.file
		}
	case *ast.SelectorExpr:
		if base, ok := fun.X.(*ast.Ident); ok {
			if imp := importPathOf(r.file, base.Name); imp != "" {
				if fd, ok := idx.funcs[imp+"."+fun.Sel.Name]; ok {
					return fd.decl.Type, fd.pkg, fd.file
				}
				return nil, nil, nil // stdlib or external function
			}
		}
		// Method call: resolve the receiver's named type.
		recv := r.typeOf(fun.X)
		if key := r.m.NamedKey(recv); key != "" {
			if fd, ok := idx.methods[key+"."+fun.Sel.Name]; ok {
				return fd.decl.Type, fd.pkg, fd.file
			}
		}
	}
	return nil, nil, nil
}

// NamedKey returns "importPath.TypeName" for a named type ("time.Time",
// "repro/internal/engine.Engine"), or "" for unnamed/unresolved types.
func (m *Module) NamedKey(t Type) string {
	for {
		switch e := t.Expr.(type) {
		case *ast.StarExpr:
			t = Type{Expr: e.X, Pkg: t.Pkg, File: t.File}
		case *ast.ParenExpr:
			t = Type{Expr: e.X, Pkg: t.Pkg, File: t.File}
		case *ast.Ident:
			if t.Pkg == nil {
				return ""
			}
			return t.Pkg.ImportPath + "." + e.Name
		case *ast.SelectorExpr:
			base, ok := e.X.(*ast.Ident)
			if !ok || t.File == nil {
				return ""
			}
			if imp := importPathOf(t.File, base.Name); imp != "" {
				return imp + "." + e.Sel.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// Underlying follows module-local named types to their declared type
// expression (one that is a map/struct/etc.), stripping pointers.
func (m *Module) Underlying(t Type) Type {
	idx := m.buildIndex()
	for i := 0; i < maxResolveDepth; i++ {
		switch e := t.Expr.(type) {
		case *ast.StarExpr:
			t = Type{Expr: e.X, Pkg: t.Pkg, File: t.File}
			continue
		case *ast.ParenExpr:
			t = Type{Expr: e.X, Pkg: t.Pkg, File: t.File}
			continue
		}
		key := m.NamedKey(t)
		if key == "" {
			return t
		}
		td, ok := idx.types[key]
		if !ok {
			return t
		}
		next := Type{Expr: td.spec.Type, Pkg: td.pkg, File: td.file}
		if m.NamedKey(next) == key {
			return t
		}
		t = next
	}
	return t
}

// IsMap reports whether the type resolves to a map.
func (m *Module) IsMap(t Type) bool {
	_, ok := m.Underlying(t).Expr.(*ast.MapType)
	return ok
}

// StructOf returns the struct type declaration behind a named key, if the
// key names a module struct.
func (m *Module) StructOf(key string) (*ast.StructType, *typeDecl) {
	td, ok := m.buildIndex().types[key]
	if !ok {
		return nil, nil
	}
	st, ok := td.spec.Type.(*ast.StructType)
	if !ok {
		return nil, nil
	}
	return st, td
}

// FieldType looks up a field's type on a module struct named by key.
func (m *Module) FieldType(key, field string) Type {
	st, td := m.StructOf(key)
	if st == nil {
		return Type{}
	}
	for _, fld := range st.Fields.List {
		for _, n := range fld.Names {
			if n.Name == field {
				return Type{Expr: fld.Type, Pkg: td.pkg, File: td.file}
			}
		}
	}
	return Type{}
}

// selectorType resolves x.f for field access (methods resolve via
// signatureOf when called).
func (r *resolver) selectorType(sel *ast.SelectorExpr) Type {
	if base, ok := sel.X.(*ast.Ident); ok {
		if imp := importPathOf(r.file, base.Name); imp != "" {
			idx := r.m.buildIndex()
			if v, ok := idx.vars[imp+"."+sel.Sel.Name]; ok {
				return r.varType(v)
			}
			return Type{}
		}
	}
	recv := r.typeOf(sel.X)
	key := r.m.NamedKey(recv)
	if key == "" {
		return Type{}
	}
	return r.m.FieldType(key, sel.Sel.Name)
}

// returnsError reports whether a signature's last result is `error`.
func returnsError(sig *ast.FuncType) bool {
	if sig == nil || sig.Results == nil || len(sig.Results.List) == 0 {
		return false
	}
	last := sig.Results.List[len(sig.Results.List)-1]
	id, ok := last.Type.(*ast.Ident)
	return ok && id.Name == "error"
}

// The unchecked-error analyzer: a dropped error in a tuning daemon is a
// silent wrong answer — a recommendation computed from a config file that
// never parsed, a report written to a disk that was full. Three discard
// shapes are flagged:
//
//	srv.Shutdown(ctx)          // expression statement, error vaporized
//	go srv.Serve(ln)           // goroutine exits silently on error
//	f, _ := strconv.ParseFloat // blank-discarded error result
//
// Error-returning targets are recognized two ways: module functions and
// methods through the lightweight resolver (their signatures are in the
// source we parsed), and a curated table of stdlib calls this repo
// actually uses. Anything unresolvable produces no finding.
//
// The escape hatch is `_ = err // conflint:ignore <reason>`; the policy
// (see DESIGN.md) admits only provably best-effort paths, like writing a
// metrics response to an HTTP client that may have hung up.
package lint

import (
	"fmt"
	"go/ast"
)

// ErrCheck returns the unchecked-error analyzer.
func ErrCheck() *Analyzer {
	return &Analyzer{
		Name: "errcheck",
		Doc:  "no silently discarded errors: expression-statement, go/defer, and blank-assigned error results are findings",
		Run:  perPackage(checkErrors),
	}
}

// stdlibReturnsError lists stdlib calls whose last result is an error,
// keyed "importPath.Func" for functions and "importPath.Type.Method" for
// methods. Curated to what the module uses; unlisted stdlib calls are not
// findings (conservative).
var stdlibReturnsError = map[string]bool{
	"os.WriteFile": true, "os.MkdirAll": true, "os.Mkdir": true,
	"os.Remove": true, "os.RemoveAll": true, "os.Rename": true,
	"os.Setenv": true, "os.Chdir": true,
	"os.File.Close": true, "os.File.Sync": true,
	"os.File.Write": true, "os.File.WriteString": true,
	"net/http.Server.Serve": true, "net/http.Server.ListenAndServe": true,
	"net/http.Server.Shutdown": true, "net/http.Server.Close": true,
	"encoding/json.Encoder.Encode": true,
	"encoding/json.Unmarshal":      true,
	"encoding/csv.Writer.Write":    true, "encoding/csv.Writer.WriteAll": true,
	"bufio.Writer.Flush": true,
	"io.Copy":            true,
	"strconv.ParseFloat": true, "strconv.ParseInt": true,
	"strconv.ParseUint": true, "strconv.ParseBool": true, "strconv.Atoi": true,
	"time.Parse": true,
}

// errDiscardAllowed lists calls whose error is ignorable by convention:
// the fmt print family, and the never-failing Write* methods of
// strings.Builder and bytes.Buffer.
var errDiscardAllowedFuncs = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
}

var errDiscardAllowedRecvs = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

func checkErrors(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, fn := range fileFuncs(f) {
			out = append(out, checkErrorsFunc(p, f, fn)...)
		}
	}
	return out
}

func checkErrorsFunc(p *Package, f *File, fn *ast.FuncDecl) []Finding {
	m := p.Mod
	fset := m.Fset
	var out []Finding

	flag := func(at ast.Node, msg, hint string) {
		pos := fset.Position(at.Pos())
		out = append(out, Finding{
			Rule: "errcheck", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: msg, Hint: hint,
		})
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, drops := callDropsError(m, p, f, fn, call); drops {
				flag(call,
					fmt.Sprintf("result of %s is an error and this statement discards it", name),
					"handle the error, or discard explicitly with `_ = ... // conflint:ignore <reason>`")
			}
		case *ast.GoStmt:
			if name, drops := callDropsError(m, p, f, fn, s.Call); drops {
				flag(s.Call,
					fmt.Sprintf("go %s drops its error: the goroutine dies silently when it fails", name),
					"wrap in `go func() { if err := ...; err != nil { log / signal } }()`")
			}
		case *ast.DeferStmt:
			if name, drops := callDropsError(m, p, f, fn, s.Call); drops {
				flag(s.Call,
					fmt.Sprintf("defer %s drops its error", name),
					"defer a closure that checks the error, or discard explicitly with a conflint:ignore reason")
			}
		case *ast.AssignStmt:
			out = append(out, checkBlankErrors(m, p, f, fn, s)...)
		}
		return true
	})
	return out
}

// callDropsError reports whether evaluating call as a statement throws an
// error away, with a printable name for the callee.
func callDropsError(m *Module, p *Package, f *File, fn *ast.FuncDecl, call *ast.CallExpr) (string, bool) {
	name := exprString(m.Fset, call.Fun)
	if allowedDiscard(m, p, f, fn, call) {
		return name, false
	}
	ret, known := callReturnsError(m, p, f, fn, call)
	return name, known && ret
}

// allowedDiscard reports whether the call is on the conventional
// never-matters list.
func allowedDiscard(m *Module, p *Package, f *File, fn *ast.FuncDecl, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if base, ok := sel.X.(*ast.Ident); ok {
		if imp := importPathOf(f, base.Name); imp != "" {
			return errDiscardAllowedFuncs[imp+"."+sel.Sel.Name]
		}
	}
	recv := m.TypeOf(p, f, fn, sel.X)
	return errDiscardAllowedRecvs[m.NamedKey(recv)]
}

// callReturnsError resolves whether a call's last result is an error.
// known=false means the callee could not be resolved at all.
func callReturnsError(m *Module, p *Package, f *File, fn *ast.FuncDecl, call *ast.CallExpr) (ret, known bool) {
	r := &resolver{m: m, pkg: p, file: f, fn: fn}
	if sig, _, _ := r.signatureOf(call); sig != nil {
		return returnsError(sig), true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false, false
	}
	if base, ok := sel.X.(*ast.Ident); ok {
		if imp := importPathOf(f, base.Name); imp != "" {
			return stdlibReturnsError[imp+"."+sel.Sel.Name], true
		}
	}
	recv := m.TypeOf(p, f, fn, sel.X)
	if key := m.NamedKey(recv); key != "" {
		return stdlibReturnsError[key+"."+sel.Sel.Name], true
	}
	return false, false
}

// checkBlankErrors flags `_` assignment positions that receive an error:
// both `x, _ := call()` (multi-result call) and `_ = call()`.
func checkBlankErrors(m *Module, p *Package, f *File, fn *ast.FuncDecl, s *ast.AssignStmt) []Finding {
	fset := m.Fset
	var out []Finding

	blankAt := func(i int) bool {
		id, ok := s.Lhs[i].(*ast.Ident)
		return ok && id.Name == "_"
	}

	// x, _ := call(): one multi-valued call feeding all LHS names.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil
		}
		last := len(s.Lhs) - 1
		if !blankAt(last) {
			return nil
		}
		if allowedDiscard(m, p, f, fn, call) {
			return nil
		}
		if ret, known := callReturnsError(m, p, f, fn, call); known && ret {
			pos := fset.Position(s.Lhs[last].Pos())
			out = append(out, Finding{
				Rule: "errcheck", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("blank identifier discards the error from %s", exprString(fset, call.Fun)),
				Hint:    "name the error and handle it; a deliberate discard needs `// conflint:ignore <reason>`",
			})
		}
		return out
	}

	// _ = call() pairs.
	if len(s.Rhs) == len(s.Lhs) {
		for i := range s.Lhs {
			if !blankAt(i) {
				continue
			}
			call, ok := s.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if allowedDiscard(m, p, f, fn, call) {
				continue
			}
			if ret, known := callReturnsError(m, p, f, fn, call); known && ret {
				pos := fset.Position(s.Lhs[i].Pos())
				out = append(out, Finding{
					Rule: "errcheck", File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: fmt.Sprintf("`_ = %s` discards an error without a conflint:ignore reason", exprString(fset, call.Fun)),
					Hint:    "handle the error or append `// conflint:ignore <reason>` to the discard",
				})
			}
		}
	}
	return out
}

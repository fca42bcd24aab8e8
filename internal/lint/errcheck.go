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
// findings (conservative), which is also what allows discarding the
// results of the fmt print family and of strings.Builder and
// bytes.Buffer writes.
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
	"io.Copy":            true, "io.WriteString": true, "io.Writer.Write": true,
	"net/http.ResponseWriter.Write": true,
	"strconv.ParseFloat":            true, "strconv.ParseInt": true,
	"strconv.ParseUint": true, "strconv.ParseBool": true, "strconv.Atoi": true,
	"time.Parse": true,
}

func checkErrors(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, fn := range fileFuncs(f) {
			out = append(out, checkErrorsFunc(&funcDecl{pkg: p, file: f, decl: fn})...)
		}
	}
	return out
}

func checkErrorsFunc(fd *funcDecl) []Finding {
	fset := fd.pkg.Mod.Fset
	var out []Finding
	flag := func(at ast.Node, msg, hint string) {
		pos := fset.Position(at.Pos())
		out = append(out, Finding{
			Rule: "errcheck", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: msg, Hint: hint,
		})
	}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && dropsError(fd, call) {
				flag(call,
					fmt.Sprintf("result of %s is an error and this statement discards it", exprString(fset, call.Fun)),
					"handle the error, or discard explicitly with `_ = ... // conflint:ignore <reason>`")
			}
		case *ast.GoStmt:
			if dropsError(fd, s.Call) {
				flag(s.Call,
					fmt.Sprintf("go %s drops its error: the goroutine dies silently when it fails", exprString(fset, s.Call.Fun)),
					"wrap in `go func() { if err := ...; err != nil { log / signal } }()`")
			}
		case *ast.DeferStmt:
			if dropsError(fd, s.Call) {
				flag(s.Call,
					fmt.Sprintf("defer %s drops its error", exprString(fset, s.Call.Fun)),
					"defer a closure that checks the error, or discard explicitly with a conflint:ignore reason")
			}
		case *ast.AssignStmt:
			blank := func(i int) bool {
				id, ok := s.Lhs[i].(*ast.Ident)
				return ok && id.Name == "_"
			}
			// x, _ := call(): one multi-valued call feeding all LHS names.
			if last := len(s.Lhs) - 1; len(s.Rhs) == 1 && last > 0 && blank(last) {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok && dropsError(fd, call) {
					flag(s.Lhs[last],
						fmt.Sprintf("blank identifier discards the error from %s", exprString(fset, call.Fun)),
						"name the error and handle it; a deliberate discard needs `// conflint:ignore <reason>`")
				}
			}
			// _ = call() pairs.
			for i := range s.Lhs {
				if len(s.Rhs) != len(s.Lhs) || !blank(i) {
					continue
				}
				if call, ok := s.Rhs[i].(*ast.CallExpr); ok && dropsError(fd, call) {
					flag(s.Lhs[i],
						fmt.Sprintf("`_ = %s` discards an error without a conflint:ignore reason", exprString(fset, call.Fun)),
						"handle the error or append `// conflint:ignore <reason>` to the discard")
				}
			}
		}
		return true
	})
	return out
}

// dropsError reports whether a call's last result is an error: module
// signatures resolve through the parsed source, stdlib calls through the
// curated table.
func dropsError(fd *funcDecl, call *ast.CallExpr) bool {
	r := &resolver{m: fd.pkg.Mod, pkg: fd.pkg, file: fd.file, fn: fd.decl}
	if sig, _, _ := r.signatureOf(call); sig != nil {
		return returnsError(sig)
	}
	return stdlibReturnsError[stdlibCallKey(r.m, fd, call)]
}

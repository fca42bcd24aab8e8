// The determinism analyzer guards PR 2's headline guarantee: for a given
// seed, every rendered report and artifact is byte-identical at any
// parallelism. Three things break that at the source level, and all three
// have crept into benchmark harnesses before reviewers caught them:
//
//  1. wall-clock reads (time.Now / time.Since) leaking into measurements,
//  2. the global math/rand source (unseeded, and shared across goroutines),
//  3. map iteration feeding ordered output — Go randomizes range order,
//     so a report built directly from a map range differs run to run.
//
// The rule applies to the packages that produce measurements and reports
// (core, workload, autopilot, bench, gateway, shard, and the lint fixture
// packages that opt in by name); engines and daemons may read the clock
// freely.
package lint

import (
	"fmt"
	"go/ast"
)

// determinismScope lists the package *names* under the rule. Scoping by
// name rather than import path keeps fixtures honest: a fixture package
// named `core` is checked exactly like the real one.
var determinismScope = map[string]bool{
	"core":      true,
	"workload":  true,
	"autopilot": true,
	"bench":     true,
	"gateway":   true,
	"shard":     true,
}

// bannedRandFuncs are the math/rand package-level entry points that use
// the global source. Constructors are fine: rand.New(rand.NewSource(seed))
// is exactly the sanctioned pattern.
func bannedRandFunc(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf":
		return false
	}
	return true
}

// Determinism returns the determinism analyzer.
func Determinism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "bans wall-clock reads, the global math/rand source, and map iteration feeding ordered output in report-producing packages",
		Run: perPackage(func(p *Package) []Finding {
			if !determinismScope[p.Name] {
				return nil
			}
			var out []Finding
			for _, f := range p.Files {
				out = append(out, checkDeterminismFile(p, f)...)
			}
			return out
		}),
	}
}

func checkDeterminismFile(p *Package, f *File) []Finding {
	var out []Finding
	fset := p.Mod.Fset

	var fn *ast.FuncDecl
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn = n
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if base, ok := sel.X.(*ast.Ident); ok {
					switch importPathOf(f, base.Name) {
					case "time":
						switch sel.Sel.Name {
						case "Now", "Since", "Until", "Tick":
							pos := fset.Position(n.Pos())
							out = append(out, Finding{
								Rule: "determinism", File: pos.Filename, Line: pos.Line, Col: pos.Column,
								Message: fmt.Sprintf("time.%s in package %s: wall-clock reads break byte-identical reports; use the simulated clock, or move this out of the report path", sel.Sel.Name, p.Name),
								Hint:    "derive times from engine measures (simulated seconds); wall-clock observability needs a conflint:ignore with a reason",
							})
						}
					case "math/rand", "math/rand/v2":
						if bannedRandFunc(sel.Sel.Name) {
							pos := fset.Position(n.Pos())
							out = append(out, Finding{
								Rule: "determinism", File: pos.Filename, Line: pos.Line, Col: pos.Column,
								Message: fmt.Sprintf("rand.%s uses the global math/rand source in package %s; draw from a seeded *rand.Rand instead", sel.Sel.Name, p.Name),
								Hint:    "thread a rand.New(rand.NewSource(seed)) through the caller",
							})
						}
					}
				}
			}
		case *ast.RangeStmt:
			out = append(out, checkMapRange(p, f, fn, n)...)
		}
		return true
	}
	ast.Inspect(f.AST, walk)
	return out
}

// outputCall reports whether a call writes ordered output: the fmt print
// family or a Write* method (strings.Builder, bytes.Buffer, io.Writer).
func outputCall(f *File, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if base, ok := sel.X.(*ast.Ident); ok && importPathOf(f, base.Name) == "fmt" {
		switch sel.Sel.Name {
		case "Fprintf", "Fprintln", "Fprint", "Printf", "Println", "Print":
			return true
		}
		return false
	}
	switch sel.Sel.Name {
	case "WriteString", "WriteByte", "WriteRune", "Write":
		return true
	}
	return false
}

// sortCall reports whether a call is a sort (sort.* or slices.Sort*).
func sortCall(f *File, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	switch importPathOf(f, base.Name) {
	case "sort":
		return true
	case "slices":
		return len(sel.Sel.Name) >= 4 && sel.Sel.Name[:4] == "Sort"
	}
	return false
}

// checkMapRange flags ranges over maps whose bodies either write output
// directly or collect into a slice that the enclosing function never
// sorts. The sanctioned pattern — collect keys, sort, then iterate the
// sorted slice — passes both branches.
func checkMapRange(p *Package, f *File, fn *ast.FuncDecl, rng *ast.RangeStmt) []Finding {
	m := p.Mod
	t := m.TypeOf(p, f, fn, rng.X)
	if t.zero() || !m.IsMap(t) {
		return nil
	}
	fset := m.Fset

	// Direct output inside the loop body is always order-dependent.
	var outCall *ast.CallExpr
	appends := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if outCall == nil && outputCall(f, call) {
				outCall = call
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				appends = true
			}
		}
		return true
	})
	if outCall != nil {
		pos := fset.Position(outCall.Pos())
		return []Finding{{
			Rule: "determinism", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("map iteration feeds ordered output in package %s: range order is randomized, so the rendered bytes change run to run", p.Name),
			Hint:    "collect the keys, sort them, and iterate the sorted slice",
		}}
	}

	// Collecting into a slice is fine only when the function sorts it
	// afterwards (checked coarsely: any sort call after the range).
	if appends && fn != nil && fn.Body != nil {
		sorted := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && call.Pos() > rng.End() && sortCall(f, call) {
				sorted = true
			}
			return true
		})
		if !sorted {
			pos := fset.Position(rng.Pos())
			return []Finding{{
				Rule: "determinism", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: fmt.Sprintf("map iteration collects into a slice that %s never sorts: downstream consumers observe random order", funcName(fn)),
				Hint:    "sort the collected slice (sort.Strings / sort.Slice) before it escapes",
			}}
		}
	}
	return nil
}

func funcName(fn *ast.FuncDecl) string {
	if fn == nil {
		return "the function"
	}
	return fn.Name.Name
}

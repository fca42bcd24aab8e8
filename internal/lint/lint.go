// Package lint implements conflint, the repository's own static-analysis
// suite. It enforces, at the source level, the invariants no faster gate
// (vet, the tests, the race detector) catches: lock discipline and lock
// ordering, goroutine termination, the determinism of every library
// package, and the absence of silently dropped errors.
// DESIGN.md §10 holds the measured table of what each rule catches that
// nothing else does.
//
// The suite is stdlib-only: packages are parsed with go/parser and
// analyzed syntactically with a lightweight name-resolution layer
// (resolve.go) instead of go/types, so it runs on a bare toolchain with
// no module dependencies. Resolution is deliberately conservative — an
// expression whose type cannot be determined produces no findings — so
// every reported finding is worth reading, at the price of a few
// undetectable corner cases (documented per analyzer).
//
// The interprocedural rules (lock's caller check, lockorder, goleak)
// share one call graph (callgraph.go), one lock-event scan per function
// (lockorder.go), and one way to compute a transitive per-function
// summary: the worklist fixpoint in dataflow.go.
//
// Findings can be suppressed line-by-line with
//
//	// conflint:ignore <reason>
//
// placed on the offending line or the line directly above. The reason is
// mandatory; a bare directive is itself a finding. Policy (see README
// "Invariants & static analysis"): directives are for provably benign
// cases only — wall-clock observability that never reaches a rendered
// report, best-effort writes to a disconnecting HTTP client — never for
// silencing a rule the code could satisfy.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
	// Hint, when non-empty, is a suggested edit, printed as a `fix:`
	// line under the finding.
	Hint string
	// Witness, for interprocedural findings, is the step-by-step path
	// that realizes the violation (lockorder cycle edges).
	Witness []string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// File is one parsed, non-test Go source file.
type File struct {
	Path string // absolute path
	AST  *ast.File
	// ignores and workers map a directive's own line to its text after
	// the token; a directive covers its own line and the line below.
	ignores, workers map[int]string
	// used marks the ignore directives that suppressed a finding.
	used map[int]bool
	// parents maps every AST node to its parent, built on demand.
	parents map[ast.Node]ast.Node
}

// Parent returns the syntactic parent of a node in this file.
func (f *File) Parent(n ast.Node) ast.Node {
	if f.parents == nil {
		f.parents = make(map[ast.Node]ast.Node)
		var stack []ast.Node
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				f.parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return f.parents[n]
}

// Package is one parsed package directory.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*File
	Mod        *Module
}

// Module is a loaded source tree: the unit conflint runs over.
type Module struct {
	Root string // directory containing go.mod (or the fixture dir)
	Path string // module path from go.mod ("fixture" for test loads)
	Fset *token.FileSet
	Pkgs []*Package

	idx     *index                         // lazy resolution indexes (resolve.go)
	graph   *CallGraph                     // lazy module-wide call graph (callgraph.go)
	callers map[string][]string            // lazy reverse call-graph edges (dataflow.go)
	goFacts map[string]*goFacts            // lazy goroutine summaries (goroutines.go)
	lockEv  map[*ast.FuncDecl][]*lockEvent // lazy lock events (lockorder.go)
}

// Analyzer is one conflint rule: a pass over the whole module. Rules
// that judge one package at a time wrap their check in perPackage.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// perPackage lifts a per-package check to a module pass.
func perPackage(check func(p *Package) []Finding) func(m *Module) []Finding {
	return func(m *Module) []Finding {
		var out []Finding
		for _, p := range m.Pkgs {
			out = append(out, check(p)...)
		}
		return out
	}
}

// All returns every analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		LockCheck(),
		LockOrder(),
		ErrCheck(),
		GoLeak(),
		Determinism(),
	}
}

// ByNames resolves a comma-separated rule list against All. Unknown,
// empty, and duplicate names are hard errors — a typo in -rules must
// never silently run the wrong (or the same) rule set.
func ByNames(csv string) ([]*Analyzer, error) {
	if csv == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	seen := make(map[string]bool)
	var out []*Analyzer
	for _, n := range strings.Split(csv, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, fmt.Errorf("empty rule name in %q (have: %s)", csv, RuleNames())
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have: %s)", n, RuleNames())
		}
		if seen[n] {
			return nil, fmt.Errorf("duplicate rule %q in %q", n, csv)
		}
		seen[n] = true
		out = append(out, a)
	}
	return out, nil
}

// RuleNames lists every registered rule, comma-separated, in All order.
func RuleNames() string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}

// skippedDirs are never descended into when loading a module.
func skipDir(name string) bool {
	switch name {
	case "testdata", "vendor", "artifacts":
		return true
	}
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule parses every non-test Go file under root (the directory
// holding go.mod). Test files are excluded by design: the invariants
// guard production code paths, and test helpers legitimately drop errors
// and read clocks.
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.loadDir(path, imp)
		if err != nil {
			return err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].ImportPath < m.Pkgs[j].ImportPath })
	return m, nil
}

// loadDir parses the non-test Go files of one directory, returning nil
// when there are none.
func (m *Module) loadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, Mod: m}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, &File{
			Path: path, AST: f, used: make(map[int]bool),
			ignores: directives(m.Fset, f, ignoreDirective),
			workers: directives(m.Fset, f, workerDirective),
		})
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Path < pkg.Files[j].Path })
	return pkg, nil
}

// modulePath extracts the module path from a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

const ignoreDirective = "conflint:ignore"

// directives collects one directive's comments: comment line -> the
// trimmed text after the token (a bare directive's text is empty).
func directives(fset *token.FileSet, f *ast.File, tok string) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, tok); ok {
				out[fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
			}
		}
	}
	return out
}

// covering returns the directive covering a line — on the line itself or
// the one directly above — with the directive's own line.
func covering(dirs map[int]string, line int) (string, int, bool) {
	for _, l := range []int{line, line - 1} {
		if text, ok := dirs[l]; ok {
			return text, l, true
		}
	}
	return "", 0, false
}

// Run executes the analyzers over the module, applies ignore directives,
// reports reason-less and stale directives, and returns findings in
// position order.
func Run(m *Module, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		raw = append(raw, a.Run(m)...)
	}
	return finishRun(m, raw, analyzers)
}

// coversAllRules reports whether the selected analyzers include every
// registered rule. Stale-ignore detection only runs then: under a rule
// subset, a directive written for an unselected rule would look unused.
func coversAllRules(analyzers []*Analyzer) bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	for _, a := range All() {
		if !names[a.Name] {
			return false
		}
	}
	return true
}

// finishRun applies ignore directives, reports bare and stale
// directives, and sorts.
func finishRun(m *Module, raw []Finding, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, f := range raw {
		if file := m.fileOf(f.File); file != nil {
			if reason, line, ok := covering(file.ignores, f.Line); ok {
				file.used[line] = true
				if reason != "" {
					continue
				}
				// Fall through: a bare directive suppresses nothing.
			}
		}
		out = append(out, f)
	}
	staleCheck := coversAllRules(analyzers)
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			lines := make([]int, 0, len(file.ignores))
			for line := range file.ignores {
				lines = append(lines, line)
			}
			sort.Ints(lines)
			for _, line := range lines {
				if file.ignores[line] == "" {
					out = append(out, Finding{
						Rule: "ignore", File: file.Path, Line: line, Col: 1,
						Message: "conflint:ignore needs a reason (// conflint:ignore <why this is safe>)",
						Hint:    "state why the finding is a false alarm, or fix the code",
					})
					continue
				}
				if staleCheck && !file.used[line] {
					out = append(out, Finding{
						Rule: "ignore", File: file.Path, Line: line, Col: 1,
						Message: "conflint:ignore suppresses nothing: no rule reports a finding on this line or the line below",
						Hint:    "delete the stale directive, or restore the code it was written for",
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// fileOf returns the loaded file for a path, if any.
func (m *Module) fileOf(path string) *File {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if f.Path == path {
				return f
			}
		}
	}
	return nil
}

// RenderText prints each finding as `file:line:col: [rule] message`
// (path relative to the module root), followed by its witness steps and
// its `fix:` hint.
func RenderText(m *Module, fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		rel := f.File
		if r, err := filepath.Rel(m.Root, f.File); err == nil {
			rel = r
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", rel, f.Line, f.Col, f.Rule, f.Message)
		for _, w := range f.Witness {
			fmt.Fprintf(&b, "    %s\n", w)
		}
		if f.Hint != "" {
			fmt.Fprintf(&b, "        fix: %s\n", f.Hint)
		}
	}
	return b.String()
}

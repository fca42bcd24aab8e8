package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLockOrderWitness pins the shape of a lockorder finding on the
// seeded two-mutex inversion: one cycle, anchored at the first edge's
// acquisition, with a witness path that walks both edges — including the
// leg that is only visible through a call edge.
func TestLockOrderWitness(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "lockorder"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, []*Analyzer{LockOrder()})
	if len(findings) != 1 {
		t.Fatalf("want exactly one lockorder finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "lockorder" || f.Line != 16 {
		t.Errorf("want [lockorder] anchored at AB's s.a.Lock() (line 16), got %s", f)
	}
	if !strings.Contains(f.Message, "fixture.S.a -> fixture.S.b -> fixture.S.a") {
		t.Errorf("cycle message wrong: %s", f.Message)
	}
	witness := strings.Join(f.Witness, "\n")
	for _, want := range []string{
		"edge fixture.S.a -> fixture.S.b:",
		"edge fixture.S.b -> fixture.S.a:",
		"fixture.S.AB acquires fixture.S.a",
		"fixture.S.BA calls fixture.S.grab",
		"fixture.S.grab acquires fixture.S.a",
	} {
		if !strings.Contains(witness, want) {
			t.Errorf("witness missing %q:\n%s", want, witness)
		}
	}

	// The witness must survive rendering.
	text := RenderText(m, findings)
	if !strings.Contains(text, "edge fixture.S.a -> fixture.S.b:") || !strings.Contains(text, "fixture.S.grab") {
		t.Errorf("text rendering drops the witness:\n%s", text)
	}
}

// TestBareWorkerDirective mirrors TestBareIgnoreDirective: a reason-less
// conflint:worker is a finding and suppresses nothing, so the leak under
// it is reported too. (A want comment cannot share the directive's line
// without becoming its reason, hence the pinned line numbers.)
func TestBareWorkerDirective(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "goleakbare"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (bare directive + unsuppressed leak), got %d: %v", len(findings), findings)
	}
	if findings[0].Rule != "goleak" || findings[0].Line != 10 ||
		!strings.Contains(findings[0].Message, "needs a reason") {
		t.Errorf("want bare-directive finding at line 10, got %s", findings[0])
	}
	if findings[1].Rule != "goleak" || findings[1].Line != 11 ||
		!strings.Contains(findings[1].Message, "may leak") {
		t.Errorf("want leak finding at line 11, got %s", findings[1])
	}
}

// TestFindingOrdering is the determinism golden: on the errcheck fixture
// the findings come out in exactly (file, line, col, rule) order.
func TestFindingOrdering(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "errcheck"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	wantLines := []int{15, 20, 25, 30, 36}
	if len(findings) != len(wantLines) {
		t.Fatalf("want %d findings, got %d: %v", len(wantLines), len(findings), findings)
	}
	for i, f := range findings {
		if f.Line != wantLines[i] {
			t.Errorf("finding %d: want line %d, got %s", i, wantLines[i], f)
		}
		if f.Rule != "errcheck" {
			t.Errorf("finding %d: want errcheck, got %s", i, f)
		}
	}
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	if !sorted {
		t.Errorf("findings are not in (file, line, col, rule) order: %v", findings)
	}
}

// TestCallGraphDeterminism builds the module graph twice and requires
// identical node and edge sequences: every downstream witness depends on
// this ordering.
func TestCallGraphDeterminism(t *testing.T) {
	build := func() ([]string, int) {
		m, err := LoadFixture(filepath.Join("testdata", "src", "lockorder"))
		if err != nil {
			t.Fatal(err)
		}
		g := m.Graph()
		_, edges := g.Stats()
		return g.Keys(), edges
	}
	k1, e1 := build()
	k2, e2 := build()
	if strings.Join(k1, ",") != strings.Join(k2, ",") || e1 != e2 {
		t.Errorf("call graph not deterministic: %v/%d vs %v/%d", k1, e1, k2, e2)
	}
	if len(k1) == 0 || e1 == 0 {
		t.Errorf("lockorder fixture graph unexpectedly empty: %d nodes, %d edges", len(k1), e1)
	}
}

// FuzzResolve feeds arbitrary Go sources through the full analyzer
// stack — parse, resolve, call graph, all seven rules. The resolver and
// graph walk must never panic on any input; unparsable input is simply
// skipped. The corpus is seeded from the module's own files.
func FuzzResolve(f *testing.F) {
	root := repoRoot(f)
	seeded := 0
	for _, dir := range []string{"internal/core", "internal/conf", filepath.Join("internal", "lint", "testdata", "src", "lockorder")} {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") || seeded >= 8 {
				continue
			}
			data, err := os.ReadFile(filepath.Join(root, dir, e.Name()))
			if err != nil {
				continue
			}
			f.Add(string(data))
			seeded++
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.go"), []byte(src), 0o644); err != nil {
			t.Skip()
		}
		m, err := LoadFixture(dir)
		if err != nil {
			t.Skip() // parse errors are expected; panics are the bug
		}
		Run(m, All())
	})
}

// loadSource writes src as the only file of a fixture package in a temp
// directory and loads it.
func loadSource(t *testing.T, src string) *Module {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoLeakOrderIndependent: A's goroutine calls spin and then wrap,
// which calls spin too; B spawns wrap. Both spawns leak whichever of A
// and B is declared first — a summary must not depend on which spawn
// site asked for it first.
func TestGoLeakOrderIndependent(t *testing.T) {
	const helpers = `
func spin() {
	for {
	}
}

func wrap() { spin() }
`
	const a = `
func A() {
	go func() {
		spin()
		wrap()
	}()
}
`
	const b = `
func B() {
	go wrap()
}
`
	for name, body := range map[string]string{"A first": a + b, "B first": b + a} {
		t.Run(name, func(t *testing.T) {
			m := loadSource(t, "package p\n"+helpers+body)
			fs := Run(m, []*Analyzer{GoLeak()})
			if len(fs) != 2 {
				t.Fatalf("want both spawns reported, got %d: %v", len(fs), fs)
			}
			for _, f := range fs {
				if !strings.Contains(f.Message, "it calls fixture.spin, which it loops forever") {
					t.Errorf("want the leak traced to spin, got %s", f)
				}
			}
		})
	}
}

// TestLockOrderOrderIndependent: f acquires a, f and g call each other,
// AB nests a then b, and BG holds b while calling g — an a -> b -> a
// cycle. Adding an unrelated caller of f (Aa, which sorts before both)
// must not hide it.
func TestLockOrderOrderIndependent(t *testing.T) {
	const src = `package p

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) f(n int) {
	s.a.Lock()
	s.a.Unlock()
	if n > 0 {
		s.g(n - 1)
	}
}

func (s *S) g(n int) { s.f(n) }

func (s *S) AB() {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
}

func (s *S) BG() {
	s.b.Lock()
	defer s.b.Unlock()
	s.g(1)
}
`
	for name, extra := range map[string]string{"without Aa": "", "with Aa": "\nfunc (s *S) Aa() { s.f(1) }\n"} {
		t.Run(name, func(t *testing.T) {
			fs := Run(loadSource(t, src+extra), []*Analyzer{LockOrder()})
			if len(fs) != 1 || !strings.Contains(fs[0].Message, "fixture.S.a -> fixture.S.b -> fixture.S.a") {
				t.Fatalf("want the a -> b -> a cycle, got %v", fs)
			}
			wantWitness(t, fs[0], "fixture.S.BG calls fixture.S.g", "fixture.S.g calls fixture.S.f", "fixture.S.f acquires fixture.S.a")
		})
	}
}

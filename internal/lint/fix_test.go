package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fixableSrc exercises every mechanically-fixable finding class: the
// two errcheck discard shapes and a stale ignore directive.
const fixableSrc = `package fixable

import "os"

func cleanup() {
	os.Remove("a")
	_ = os.Remove("b")
}

// conflint:ignore this directive outlived the code it excused
func idle() {}
`

func writeFixture(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFixEndToEnd drives the whole engine over every fixable class:
// plan, write, re-lint to zero findings, prove idempotence, and build
// the fixed tree.
func TestFixEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "fixable.go", fixableSrc)

	m, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) != 3 {
		t.Fatalf("want 3 findings (2 errcheck, 1 stale ignore), got %d:\n%v", len(findings), findings)
	}
	plan, err := PlanFixes(m, findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Applied) != 3 || len(plan.Dropped) != 0 {
		t.Fatalf("want 3 applied / 0 dropped, got %d / %d", len(plan.Applied), len(plan.Dropped))
	}
	if err := plan.Write(); err != nil {
		t.Fatal(err)
	}

	fixed, err := os.ReadFile(filepath.Join(dir, "fixable.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(fixed)
	for _, frag := range []string{
		"_ = os.Remove(\"a\") // conflint:ignore TODO: justify this error discard",
		"_ = os.Remove(\"b\") // conflint:ignore TODO: justify this error discard",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("fixed source missing %q:\n%s", frag, got)
		}
	}
	if strings.Contains(got, "outlived the code") {
		t.Errorf("stale directive not deleted:\n%s", got)
	}

	// The fixed tree re-lints clean and a second pass is a no-op.
	m2, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	after := Run(m2, All())
	if len(after) != 0 {
		t.Fatalf("fixed tree still has findings: %v", after)
	}
	plan2, err := PlanFixes(m2, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Applied) != 0 || len(plan2.Files) != 0 {
		t.Fatalf("second fix pass is not a no-op: %d applied", len(plan2.Applied))
	}

	// The fixed tree compiles.
	writeFixture(t, dir, "go.mod", "module fixable\n\ngo 1.21\n")
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fixed tree does not build: %v\n%s", err, out)
	}
}

// TestStaleIgnore pins the stale-directive contract: a reasoned
// directive that suppresses a finding is silent, one that suppresses
// nothing is a finding with a deletion fix — but only when the full
// rule set runs, since a subset cannot know what the directive was
// written for.
func TestStaleIgnore(t *testing.T) {
	const src = `package stale

import "os"

func touch() {
	_ = os.Remove("x") // conflint:ignore best-effort cleanup of a scratch file
}

// conflint:ignore written for code that moved away
func quiet() {}
`
	dir := t.TempDir()
	writeFixture(t, dir, "stale.go", src)

	m, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) != 1 || findings[0].Rule != "ignore" || findings[0].Line != 9 {
		t.Fatalf("want exactly the stale-ignore finding at line 9, got %v", findings)
	}
	if !strings.Contains(findings[0].Message, "suppresses nothing") || len(findings[0].Fixes) != 1 {
		t.Fatalf("stale finding malformed: %+v", findings[0])
	}

	// Under a rule subset the gate is off: no stale reporting (and the
	// used directive still suppresses).
	m2, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sub := Run(m2, []*Analyzer{ErrCheck()}); len(sub) != 0 {
		t.Fatalf("subset run should report nothing, got %v", sub)
	}

	// The fix deletes the directive; the tree re-lints clean.
	plan, err := PlanFixes(m, findings)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Write(); err != nil {
		t.Fatal(err)
	}
	m3, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after := Run(m3, All()); len(after) != 0 {
		t.Fatalf("fixed tree still has findings: %v", after)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "stale.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(fixed), "moved away") {
		t.Errorf("stale directive survived the fix:\n%s", fixed)
	}
}

// TestPureWitnessShape pins the effect-summary witness: the call chain
// from the declared-pure root to the function performing the effect,
// ending at the write itself.
func TestPureWitnessShape(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "pure"))
	if err != nil {
		t.Fatal(err)
	}
	fs := Run(m, All())

	direct := findingWith(t, fs, "BadWrite is declared conflint:pure")
	wantWitness(t, direct, "fixture.Registry.BadWrite writes r.entries[k]")

	chain := findingWith(t, fs, "BadTransitive is declared conflint:pure")
	wantWitness(t, chain,
		"fixture.Registry.BadTransitive calls fixture.tally",
		"fixture.tally calls fixture.note",
		"fixture.note writes package-level fixture.hits")
}

// TestRenderSARIF smoke-tests the SARIF renderer: valid version, rule
// metadata, results with module-relative URIs.
func TestRenderSARIF(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "errcheck"))
	if err != nil {
		t.Fatal(err)
	}
	fs := Run(m, All())
	if len(fs) == 0 {
		t.Fatal("errcheck fixture produced no findings")
	}
	out, err := RenderSARIF(m, All(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`"version": "2.1.0"`,
		`"name": "conflint"`,
		`"ruleId": "errcheck"`,
		`"id": "pure"`,
		`"startLine"`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("SARIF output missing %q", frag)
		}
	}
	if strings.Contains(out, m.Root) {
		t.Error("SARIF URIs should be module-relative, found absolute root")
	}
}

package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// findingWith returns the first finding whose message contains all the
// fragments, failing the test when none does.
func findingWith(t *testing.T, fs []Finding, fragments ...string) Finding {
	t.Helper()
	for _, f := range fs {
		ok := true
		for _, frag := range fragments {
			if !strings.Contains(f.Message, frag) {
				ok = false
				break
			}
		}
		if ok {
			return f
		}
	}
	t.Fatalf("no finding containing %q in %v", fragments, fs)
	return Finding{}
}

func wantWitness(t *testing.T, f Finding, fragments ...string) {
	t.Helper()
	joined := strings.Join(f.Witness, "\n")
	for _, frag := range fragments {
		if !strings.Contains(joined, frag) {
			t.Errorf("witness of %q missing %q:\n%s", f.Message, frag, joined)
		}
	}
}

// TestShutdownPathWitness pins the transitive chain: spawn site, the
// call into the helper, and the blocking op inside it.
func TestShutdownPathWitness(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "shutdownpath"))
	if err != nil {
		t.Fatal(err)
	}
	fs := Run(m, All())
	f := findingWith(t, fs, "ranges over channel jobs")
	wantWitness(t, f,
		"worker spawned (lifecycle=trigger)",
		"calls",
		"ranges over channel jobs")
}

// TestFixpointDeterminism re-runs the interprocedural analyzers from
// scratch many times and requires the exact same findings in the exact
// same order every time.
func TestFixpointDeterminism(t *testing.T) {
	for _, fixture := range []string{"pure", "shutdownpath", "lockorder"} {
		dir := filepath.Join("testdata", "src", fixture)
		var first []Finding
		for i := 0; i < 10; i++ {
			m, err := LoadFixture(dir)
			if err != nil {
				t.Fatal(err)
			}
			fs := Run(m, All())
			if i == 0 {
				first = fs
				if len(first) == 0 && fixture != "lockorder" {
					t.Fatalf("%s: fixture produced no findings", fixture)
				}
				continue
			}
			if !reflect.DeepEqual(fs, first) {
				t.Fatalf("%s: run %d differs:\n%v\nvs\n%v", fixture, i, fs, first)
			}
		}
	}
}

// TestBaselineStrict pins the malformed-baseline contract: null, JSON
// objects, unknown rules, and missing rules are errors, never an empty
// suppression set.
func TestBaselineStrict(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, content := range map[string]string{
		"null.json":    `null`,
		"empty.json":   ``,
		"object.json":  `{"rule": "lock"}`,
		"norule.json":  `[{"package": "p", "symbol": "s"}]`,
		"unknown.json": `[{"rule": "nosuch", "package": "p", "symbol": "s"}]`,
		"extra.json":   `[{"rule": "lock", "package": "p", "symbol": "s", "line": 3}]`,
	} {
		if _, err := ReadBaseline(write(name, content)); err == nil {
			t.Errorf("%s: want parse error, got nil", name)
		}
	}

	good := write("good.json", `[{"rule": "pure", "package": "p", "symbol": "s"}]`)
	base, err := ReadBaseline(good)
	if err != nil {
		t.Fatal(err)
	}
	if !base[BaselineKey("pure", "p", "s")] {
		t.Error("valid entry not in the suppression set")
	}

	emptyList := write("emptylist.json", "[]\n")
	base, err = ReadBaseline(emptyList)
	if err != nil || len(base) != 0 {
		t.Errorf("[] should parse to an empty set, got %v, %v", base, err)
	}
}

// TestWriteReadBaselineRoundtrip: entries survive the write/read cycle.
func TestWriteReadBaselineRoundtrip(t *testing.T) {
	fs := []Finding{
		{Rule: "lockorder", Package: "repro/internal/engine", Symbol: "Engine.ApplyConfig"},
		{Rule: "lockorder", Package: "repro/internal/engine", Symbol: "Engine.ApplyConfig"}, // dup
		{Rule: "determinism", Package: "repro/internal/core", Symbol: "Histogram.Render"},
	}
	p := filepath.Join(t.TempDir(), "base.json")
	if err := WriteBaseline(p, fs); err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 {
		t.Fatalf("want 2 deduped entries, got %d", len(base))
	}
	for _, f := range fs {
		if !base[BaselineKey(f.Rule, f.Package, f.Symbol)] {
			t.Errorf("missing %s/%s/%s", f.Rule, f.Package, f.Symbol)
		}
	}
}

// TestRunTimed: the per-analyzer walls cover every analyzer, the
// timed run returns the same findings as Run, and the fixpoints report
// their iteration counts.
func TestRunTimed(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "pure"))
	if err != nil {
		t.Fatal(err)
	}
	fs, walls := RunTimed(m, All())
	if len(walls) != len(All()) {
		t.Errorf("want a wall per analyzer, got %d/%d", len(walls), len(All()))
	}
	m2, err := LoadFixture(filepath.Join("testdata", "src", "pure"))
	if err != nil {
		t.Fatal(err)
	}
	if plain := Run(m2, All()); !reflect.DeepEqual(fs, plain) {
		t.Errorf("RunTimed findings differ from Run's")
	}
	iters := m.FixpointIters()
	for _, rule := range []string{"shutdownpath", "effects"} {
		if iters[rule] < 1 {
			t.Errorf("fixpoint for %s reported %d iterations; want >= 1", rule, iters[rule])
		}
	}
}

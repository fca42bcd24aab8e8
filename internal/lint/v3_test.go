package lint

import (
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
	for _, fixture := range []string{"pure", "shutdownpath", "lockorder", "goleak"} {
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

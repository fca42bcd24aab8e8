package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func wantWitness(t *testing.T, f Finding, fragments ...string) {
	t.Helper()
	joined := strings.Join(f.Witness, "\n")
	for _, frag := range fragments {
		if !strings.Contains(joined, frag) {
			t.Errorf("witness of %q missing %q:\n%s", f.Message, frag, joined)
		}
	}
}

// TestFixpointDeterminism re-runs the interprocedural analyzers from
// scratch many times and requires the exact same findings in the exact
// same order every time.
func TestFixpointDeterminism(t *testing.T) {
	for _, fixture := range []string{"lockorder", "goleak"} {
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

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// artifactScale and artifactSeed are the parameters the checked-in
// artifacts were generated with (see EXPERIMENTS.md): cmd/autobench's
// defaults of -scale 0.0005 -seed 42 -size 100.
const (
	artifactScale = 0.0005
	artifactSeed  = 42
)

// TestGoldenArtifacts regenerates the checked-in artifacts and requires
// byte-identical output, so refactors cannot silently drift the paper's
// numbers. It runs with the lab's default parallelism — a full-scale
// determinism check for free. Under -race the full-scale regeneration
// would take many minutes, so it defers to the tiny-scale tests instead.
func TestGoldenArtifacts(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale golden regeneration is too slow under -race")
	}
	if testing.Short() {
		t.Skip("golden regeneration takes ~30s; skipped with -short")
	}
	l := NewLab(artifactScale, artifactSeed)
	for _, id := range []string{"fig1", "table1", "goals", "transitions", "ablation-disk", "insertions"} {
		id := id
		t.Run(id, func(t *testing.T) {
			exp, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			out, err := exp.Run(l)
			if err != nil {
				t.Fatal(err)
			}
			// cmd/autobench writes "# <Title>\n\n<output>\n".
			got := "# " + exp.Title + "\n\n" + out + "\n"
			path := filepath.Join("..", "..", "artifacts", id+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from checked-in artifact:\n%s", id, diffLines(string(want), got))
			}
		})
	}
}

// diffLines renders a minimal line diff for the golden failure message.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var sb strings.Builder
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n  want: %q\n  got:  %q\n", i+1, wl, gl)
		}
	}
	if sb.Len() == 0 {
		return "(no line-level diff; trailing bytes differ)"
	}
	return sb.String()
}

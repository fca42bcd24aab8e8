package autopilot

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/recommender"
)

// tinyOpts is the shared bounded drift scenario: warmup tune, two-family
// mixture flipping at window 1, four windows.
func tinyOpts(parallelism int, sync bool) Options {
	return Options{
		System: "B",
		Families: []FamilyShare{
			{Family: "NREF2J", Weight: 0.9},
			{Family: "NREF3J", Weight: 0.1},
		},
		Drift: &Drift{
			AtWindow: 1,
			Shares: []FamilyShare{
				{Family: "NREF2J", Weight: 0.1},
				{Family: "NREF3J", Weight: 0.9},
			},
		},
		Scale:       0.0001,
		Seed:        7,
		PoolSize:    12,
		WindowSize:  10,
		Windows:     4,
		Parallelism: parallelism,
		Sync:        sync,
		Warmup:      true,
		Goal: core.Goal{Name: "tail", Steps: []core.GoalStep{
			{X: 60, Frac: 0.50},
			{X: 400, Frac: 0.95},
		}},
	}
}

func runBounded(t *testing.T, opts Options) ([]WindowReport, []recommender.RetuneRecord) {
	t.Helper()
	ap, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	reports, retunes, err := ap.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != opts.Windows {
		t.Fatalf("got %d reports, want %d", len(reports), opts.Windows)
	}
	return reports, retunes
}

// TestAutopilotDeterminism mirrors the batch runner's determinism
// guarantee for the online loop: with synchronous transitions, the same
// seed and window bound produce byte-identical window reports (and
// identical retune logs, wall clock aside) at parallelism 1 and N.
func TestAutopilotDeterminism(t *testing.T) {
	baseReports, baseRetunes := runBounded(t, tinyOpts(1, true))
	baseTable := RenderTable(baseReports, baseRetunes)
	if len(baseRetunes) < 2 {
		t.Fatalf("scenario too quiet: %d retunes, want warmup + drift retune", len(baseRetunes))
	}

	for _, n := range []int{4, 16} {
		reports, retunes := runBounded(t, tinyOpts(n, true))
		if !reflect.DeepEqual(baseReports, reports) {
			t.Errorf("parallel(%d) window reports differ from sequential", n)
		}
		table := RenderTable(reports, retunes)
		if table != baseTable {
			t.Errorf("parallel(%d) rendered table differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", n, baseTable, table)
		}
		for i := range retunes {
			a, b := baseRetunes[i], retunes[i]
			a.WallMS, b.WallMS = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("parallel(%d) retune %d differs: %+v vs %+v", n, i, a, b)
			}
		}
	}
}

// TestAutopilotSameSeedSameRun re-runs the identical sequential scenario
// and requires a byte-identical table: the stream, sampler and
// recommender hold no hidden global state.
func TestAutopilotSameSeedSameRun(t *testing.T) {
	r1, t1 := runBounded(t, tinyOpts(1, true))
	r2, t2 := runBounded(t, tinyOpts(1, true))
	if RenderTable(r1, t1) != RenderTable(r2, t2) {
		t.Error("two runs with the same seed rendered different tables")
	}
}

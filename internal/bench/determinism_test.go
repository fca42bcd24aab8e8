package bench

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestParallelDeterminism proves the tentpole property: the parallel
// runner produces byte-identical measures to the sequential baseline for
// every family, at every pool size, including the derived CFC curves and
// goal-satisfaction verdicts. The simulated clock is per-query, so
// scheduling order cannot leak into the results.
func TestParallelDeterminism(t *testing.T) {
	l := tinyLab()
	goal := core.Example2Goal()
	for _, spec := range []struct{ sys, family string }{
		{"A", "NREF2J"},
		{"A", "NREF3J"},
		{"C", "SkTH3J"},
		{"C", "SkTH3Js"},
		{"C", "UnTH3J"},
	} {
		db := dbOfFamily(spec.family)
		fam := l.Workload(spec.sys, spec.family)
		e := l.Engine(spec.sys, db)

		base, err := core.Runner{Parallelism: 1}.RunWorkload(e, fam.SQLs(), Timeout)
		if err != nil {
			t.Fatalf("%s/%s: sequential run: %v", spec.sys, spec.family, err)
		}
		baseEst, err := core.Runner{Parallelism: 1}.EstimateWorkload(e, fam.SQLs())
		if err != nil {
			t.Fatalf("%s/%s: sequential estimate: %v", spec.sys, spec.family, err)
		}
		baseCFC := core.NewCFC(base, Timeout)

		for _, n := range []int{1, 4, 16} {
			r := core.Runner{Parallelism: n}
			got, err := r.RunWorkload(e, fam.SQLs(), Timeout)
			if err != nil {
				t.Fatalf("%s/%s: parallel(%d) run: %v", spec.sys, spec.family, n, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s/%s: parallel(%d) measures differ from sequential", spec.sys, spec.family, n)
			}
			gotEst, err := r.EstimateWorkload(e, fam.SQLs())
			if err != nil {
				t.Fatalf("%s/%s: parallel(%d) estimate: %v", spec.sys, spec.family, n, err)
			}
			if !reflect.DeepEqual(baseEst, gotEst) {
				t.Errorf("%s/%s: parallel(%d) estimates differ from sequential", spec.sys, spec.family, n)
			}

			gotCFC := core.NewCFC(got, Timeout)
			if !reflect.DeepEqual(baseCFC, gotCFC) {
				t.Errorf("%s/%s: parallel(%d) CFC differs from sequential", spec.sys, spec.family, n)
			}
			if goal.Satisfied(baseCFC) != goal.Satisfied(gotCFC) {
				t.Errorf("%s/%s: parallel(%d) goal verdict differs", spec.sys, spec.family, n)
			}
		}
	}
}

// TestLabParallelismMatchesSequential runs the same Lab experiment cell
// with a sequential lab and a 16-way lab and requires identical cached
// measures — the end-to-end version of the runner-level test above.
func TestLabParallelismMatchesSequential(t *testing.T) {
	seq := tinyLab()
	seq.Parallelism = 1
	par := tinyLab()
	par.Parallelism = 16
	for _, cn := range []string{"P", "1C"} {
		a, err := seq.Run("A", "NREF2J", cn)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Run("A", "NREF2J", cn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("config %s: parallel lab measures differ from sequential lab", cn)
		}
	}
}

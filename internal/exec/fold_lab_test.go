package exec_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/workload"
)

// labEngine loads one database at scale under System B's P configuration.
func labEngine(t *testing.T, schema *catalog.Schema, scale float64, load func(*engine.Engine) error) *engine.Engine {
	t.Helper()
	e := engine.New(schema, scale, engine.SystemB())
	if err := load(e); err != nil {
		t.Fatal(err)
	}
	e.CollectStats()
	if _, err := e.ApplyConfig(engine.PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFoldMatchesEnumerationOnFamilies holds the fold to the enumerating
// path on every query of the paper's NREF2J and NREF3J families and the
// TPC-H families over skewed and uniform data, on a small lab: identical
// result bytes, RunPartial group states and order, and meters, at the
// paper's 1 800 s and, for a query that finishes within it, at no limit.
// Every eighth query also sweeps the limit: quarters of its cost (capped
// at 1 800 s), just under and over its cost without the end-of-operator
// spill bills, and just under and over the last check that tests the
// limit. Sweeping every query would take the enumerating path over a
// minute on the heavy NREF3J ones; fold_test.go sweeps its cases fully.
func TestFoldMatchesEnumerationOnFamilies(t *testing.T) {
	const (
		scale, seed = 0.00002, 42
		paperLimit  = 1800 // the paper's 30-minute timeout
		sweepEvery  = 8
	)
	nref := labEngine(t, catalog.NREF(), scale, func(e *engine.Engine) error {
		return datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: scale, Seed: seed})
	})
	skth := labEngine(t, catalog.TPCH(), scale, func(e *engine.Engine) error {
		return datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: scale, Seed: seed, Skew: true, ZipfS: 1})
	})
	unth := labEngine(t, catalog.TPCH(), scale, func(e *engine.Engine) error {
		return datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: scale, Seed: seed})
	})
	opts := workload.DefaultOptions()
	for _, fam := range []struct {
		e *engine.Engine
		f workload.Family
	}{
		{nref, workload.NREF2J(nref.Schema, nref, opts)},
		{nref, workload.NREF3J(nref.Schema, nref, opts)},
		{skth, workload.SkTH3J(skth.Schema, skth, opts)},
		{skth, workload.SkTH3Js(skth.Schema, skth, opts)},
		{unth, workload.UnTH3J(unth.Schema, unth, opts)},
	} {
		for i, q := range fam.f.Queries {
			p, err := fam.e.Prepare(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			full, noSpill := exec.FullSeconds(t, p, fam.e.Model)
			limits := []float64{paperLimit}
			if full <= paperLimit {
				limits = append(limits, 0)
			}
			if i%sweepEvery == 0 {
				for f := 1; f < 4; f++ {
					limits = append(limits, min(full, paperLimit)*float64(f)/4)
				}
				if full <= paperLimit {
					limits = append(limits, noSpill*(1-1e-9), noSpill*(1+1e-9))
					limits = append(limits, exec.FlipLimits(t, p, fam.e.Model)...)
				}
			}
			exec.CheckFold(t, q.SQL, p, fam.e.Model, limits...)
		}
	}
}

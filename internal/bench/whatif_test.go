package bench

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recommender"
)

// whatifFamilies are the determinism harness's five family cells (see
// TestParallelDeterminism), reused to compare the memoized estimation
// fast path against the pre-cache path.
var whatifFamilies = []struct{ sys, family string }{
	{"A", "NREF2J"},
	{"A", "NREF3J"},
	{"C", "SkTH3J"},
	{"C", "SkTH3Js"},
	{"C", "UnTH3J"},
}

// TestWhatIfCacheMatchesUncached requires the memoized Estimate to
// return measures identical to the uncached path for every family, both
// on a cold session and on a warm one (where every call is a hit).
func TestWhatIfCacheMatchesUncached(t *testing.T) {
	cached := tinyLab()
	uncached := tinyLab()
	uncached.DisableWhatIfCache = true
	r := core.Runner{Parallelism: 1}
	for _, spec := range whatifFamilies {
		db := dbOfFamily(spec.family)
		for _, l := range []*Lab{cached, uncached} {
			if err := l.ApplyNamed(spec.sys, db, "P"); err != nil {
				t.Fatal(err)
			}
		}
		sqls := cached.Workload(spec.sys, spec.family).SQLs()
		ce := cached.Engine(spec.sys, db)
		ue := uncached.Engine(spec.sys, db)
		hypo := engine.OneColumnConfiguration(ce)

		want, err := core.WhatIfWorkload(ue, sqls, hypo)
		if err != nil {
			t.Fatalf("%s/%s: uncached what-if: %v", spec.sys, spec.family, err)
		}
		w := ce.NewWhatIf()
		cold, err := r.WhatIfSessionWorkload(w, sqls, hypo)
		if err != nil {
			t.Fatalf("%s/%s: cached what-if: %v", spec.sys, spec.family, err)
		}
		if !reflect.DeepEqual(want, cold) {
			t.Errorf("%s/%s: cold cached estimates differ from uncached", spec.sys, spec.family)
		}
		warm, err := r.WhatIfSessionWorkload(w, sqls, hypo)
		if err != nil {
			t.Fatalf("%s/%s: warm what-if: %v", spec.sys, spec.family, err)
		}
		if !reflect.DeepEqual(want, warm) {
			t.Errorf("%s/%s: warm cached estimates differ from uncached", spec.sys, spec.family)
		}
	}
}

// TestEstimateWithMatchesCombined checks the incremental base+delta
// entry point against Estimate on the materialized union, including the
// dedup rule: a delta that repeats base structures must cost the same
// as the base alone.
func TestEstimateWithMatchesCombined(t *testing.T) {
	l := tinyLab()
	db := dbOfFamily("NREF2J")
	if err := l.ApplyNamed("A", db, "P"); err != nil {
		t.Fatal(err)
	}
	e := l.Engine("A", db)
	base := engine.OneColumnConfiguration(e)
	if len(base.Indexes) == 0 {
		t.Fatal("1C configuration has no indexes")
	}
	delta := conf.Configuration{Indexes: []conf.IndexDef{{
		Table:   base.Indexes[0].Table,
		Columns: append([]string{}, base.Indexes[0].Columns...),
	}}}
	w := e.NewWhatIf()
	for _, sqlText := range l.Workload("A", "NREF2J").SQLs()[:6] {
		q, err := e.AnalyzeSQL(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := w.Estimate(q, base)
		if err != nil {
			t.Fatal(err)
		}
		dup, err := w.EstimateWith(q, base, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, dup) {
			t.Errorf("duplicate delta changed the estimate for %q", sqlText)
		}
		inc, err := w.EstimateWith(q, conf.Configuration{}, base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, inc) {
			t.Errorf("delta-only incremental estimate differs from Estimate for %q", sqlText)
		}
	}
}

// TestWhatIfSessionInvalidatesOnTransition moves the engine to a new
// configuration under a live session and requires the session's next
// estimates to match a fresh session — the epoch check must flush every
// cache layer.
func TestWhatIfSessionInvalidatesOnTransition(t *testing.T) {
	l := tinyLab()
	db := dbOfFamily("NREF2J")
	if err := l.ApplyNamed("A", db, "P"); err != nil {
		t.Fatal(err)
	}
	e := l.Engine("A", db)
	sqls := l.Workload("A", "NREF2J").SQLs()[:6]
	hypo := engine.OneColumnConfiguration(e)
	r := core.Runner{Parallelism: 1}

	w := e.NewWhatIf()
	if _, err := r.WhatIfSessionWorkload(w, sqls, hypo); err != nil {
		t.Fatal(err)
	}
	if err := l.ApplyNamed("A", db, "1C"); err != nil {
		t.Fatal(err)
	}
	after, err := r.WhatIfSessionWorkload(w, sqls, hypo)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.WhatIfWorkload(e, sqls, hypo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, after) {
		t.Error("session estimates after Transition differ from a fresh session")
	}
}

// TestRecommendationParallelIdentity extends the determinism harness to
// the recommender: for each system's search strategy the recommended
// configuration must be byte-identical at every pool size.
func TestRecommendationParallelIdentity(t *testing.T) {
	l := tinyLab()
	for _, spec := range []struct{ sys, family string }{
		{"A", "NREF2J"},
		{"B", "NREF3J"},
		{"C", "SkTH3J"},
	} {
		db := dbOfFamily(spec.family)
		sqls := l.Workload(spec.sys, spec.family).SQLs()
		e := l.Engine(spec.sys, db)
		budget := l.Budget(spec.sys, db)
		if err := l.ApplyNamed(spec.sys, db, "P"); err != nil {
			t.Fatal(err)
		}
		recCfg, err := recommender.System(spec.sys)
		if err != nil {
			t.Fatal(err)
		}
		base, baseErr := recommender.New(e, recCfg).Parallel(1).Recommend(sqls, budget)
		for _, n := range []int{4, 16} {
			got, err := recommender.New(e, recCfg).Parallel(n).Recommend(sqls, budget)
			if fmt.Sprint(err) != fmt.Sprint(baseErr) {
				t.Fatalf("%s/%s: parallel(%d) error %v, sequential %v", spec.sys, spec.family, n, err, baseErr)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s/%s: parallel(%d) recommendation differs from sequential", spec.sys, spec.family, n)
			}
		}
	}
}

// TestRecommendationCacheOnOffIdentity requires the estimate cache to be
// invisible in recommender output: cache-on and cache-off labs must
// produce byte-identical recommendations on the five searches behind
// Table 2 / Figure 5 (the benchmark's advise cases; System A on NREF3J
// capitulates before estimating anything).
func TestRecommendationCacheOnOffIdentity(t *testing.T) {
	cached := tinyLab()
	uncached := tinyLab()
	uncached.DisableWhatIfCache = true
	for _, spec := range []struct{ sys, family string }{
		{"A", "NREF2J"},
		{"B", "NREF2J"},
		{"B", "NREF3J"},
		{"C", "SkTH3J"},
		{"C", "UnTH3J"},
	} {
		a, errA := cached.Recommendation(spec.sys, spec.family)
		b, errB := uncached.Recommendation(spec.sys, spec.family)
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%s/%s: cached err %v, uncached err %v", spec.sys, spec.family, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s/%s: cached recommendation differs from uncached", spec.sys, spec.family)
		}
	}
}

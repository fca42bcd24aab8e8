package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/optimizer"
)

// TestEstimateMatchesOptimize requires optimizer.Estimate to return, bit
// for bit, the estimate of the plan optimizer.Optimize builds, for every
// pool query of the five advise cases (TestPlanDigests' lab): against the
// engine's built P and R, and through what-if sessions under 1C, under R
// and under each of R's structures as a delta over P. A caching session's
// misses run Estimate and a non-caching one runs Optimize, so there the
// two sessions' measures are compared.
func TestEstimateMatchesOptimize(t *testing.T) {
	l := NewLab(0.0002, 42)
	l.WorkloadSize = 50
	l.Parallelism = 1
	for _, c := range []struct{ sys, family string }{
		{"A", "NREF2J"}, {"B", "NREF2J"}, {"B", "NREF3J"}, {"C", "SkTH3J"}, {"C", "UnTH3J"},
	} {
		name := c.sys + "/" + c.family
		db := dbOfFamily(c.family)
		sqls := l.Workload(c.sys, c.family).SQLs()
		r, err := l.Recommendation(c.sys, c.family)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cfg := range []string{"P", "R:" + c.family} {
			b, err := l.configured(c.sys, db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			phys := b.e.Physical()
			for i, s := range sqls {
				q, err := b.e.AnalyzeSQL(s)
				if err != nil {
					t.Fatal(err)
				}
				p, err := optimizer.Optimize(phys, q, b.e.Profile.Opts)
				if err != nil {
					t.Fatal(err)
				}
				est, err := optimizer.Estimate(phys, q, b.e.Profile.Opts)
				if err != nil {
					t.Fatal(err)
				}
				if est != p.Est {
					t.Errorf("%s under %s, query %d: Estimate %+v, Optimize %+v", name, cfg, i, est, p.Est)
				}
			}
		}

		pCfg, err := l.Config(c.sys, db, "P")
		if err != nil {
			t.Fatal(err)
		}
		one, err := l.Config(c.sys, db, "1C")
		if err != nil {
			t.Fatal(err)
		}
		deltas := []conf.Configuration{}
		for _, v := range r.Views {
			d := conf.Configuration{Views: []conf.ViewDef{v}}
			for _, ix := range r.Indexes {
				if strings.EqualFold(ix.Table, v.Name) {
					d.Indexes = append(d.Indexes, ix)
				}
			}
			deltas = append(deltas, d)
		}
		for _, ix := range r.Indexes {
			if !r.HasView(ix.Table) {
				deltas = append(deltas, conf.Configuration{Indexes: []conf.IndexDef{ix}})
			}
		}
		cached := l.Engine(c.sys, db)
		plain := l.Engine(c.sys, db)
		plain.DisableWhatIfCache = true
		w, u := cached.NewWhatIf(), plain.NewWhatIf()
		wp, err := w.Resolve(pCfg)
		if err != nil {
			t.Fatal(err)
		}
		up, err := u.Resolve(pCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sqls {
			q, err := cached.AnalyzeSQL(s)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, est func(*engine.WhatIf, *engine.Resolved) (engine.Measure, error)) {
				got, err := est(w, wp)
				if err != nil {
					t.Fatal(err)
				}
				want, err := est(u, up)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s, query %d, %s: Estimate %v %+v, Optimize %v %+v", name, i, what, got.Seconds, got.Meter, want.Seconds, want.Meter)
				}
			}
			for _, h := range []struct {
				what string
				cfg  conf.Configuration
			}{{"H(q, 1C)", one}, {"H(q, R)", r}} {
				check(h.what, func(w *engine.WhatIf, _ *engine.Resolved) (engine.Measure, error) { return w.Estimate(q, h.cfg) })
			}
			for j, d := range deltas {
				check(fmt.Sprintf("delta %d", j), func(w *engine.WhatIf, base *engine.Resolved) (engine.Measure, error) {
					h, err := w.Resolve(d)
					if err != nil {
						return engine.Measure{}, err
					}
					return w.EstimateWith(q, base, h)
				})
			}
		}
		t.Logf("%s: %d queries, %d deltas", name, len(sqls), len(deltas))
	}
}

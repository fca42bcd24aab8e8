package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sql"
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
	for _, spec := range whatifFamilies {
		db := dbOfFamily(spec.family)
		sqls := cached.Workload(spec.sys, spec.family).SQLs()
		ce := cached.Engine(spec.sys, db)
		ue := uncached.Engine(spec.sys, db)
		hypo := engine.OneColumnConfiguration(ce)

		want, err := core.WhatIfWorkload(ue.NewWhatIf(), sqls, hypo)
		if err != nil {
			t.Fatalf("%s/%s: uncached what-if: %v", spec.sys, spec.family, err)
		}
		w := ce.NewWhatIf()
		cold, err := core.WhatIfWorkload(w, sqls, hypo)
		if err != nil {
			t.Fatalf("%s/%s: cached what-if: %v", spec.sys, spec.family, err)
		}
		if !reflect.DeepEqual(want, cold) {
			t.Errorf("%s/%s: cold cached estimates differ from uncached", spec.sys, spec.family)
		}
		warm, err := core.WhatIfWorkload(w, sqls, hypo)
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
	rbase := mustResolve(t, w, base)
	empty := mustResolve(t, w, conf.Configuration{})
	for _, sqlText := range l.Workload("A", "NREF2J").SQLs()[:6] {
		q, err := e.AnalyzeSQL(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := w.Estimate(q, base)
		if err != nil {
			t.Fatal(err)
		}
		dup, err := w.EstimateWith(q, rbase, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, dup) {
			t.Errorf("duplicate delta changed the estimate for %q", sqlText)
		}
		inc, err := w.EstimateWith(q, empty, base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, inc) {
			t.Errorf("delta-only incremental estimate differs from Estimate for %q", sqlText)
		}
	}
}

func mustResolve(t *testing.T, w *engine.WhatIf, c conf.Configuration) *engine.Resolved {
	t.Helper()
	r, err := w.Resolve(c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// trial is one greedy trial: a System C engine in P, a SkTH3J query, the
// current configuration and the candidate deltas X — a single index the
// configuration lacks, and a bundle of a view over the query's first join
// with an index on that view.
type trial struct {
	e      *engine.Engine
	q      *sql.Query
	cur    conf.Configuration
	deltas map[string]conf.Configuration
}

func newTrial(t *testing.T) trial {
	t.Helper()
	l := tinyLab()
	db := dbOfFamily("SkTH3J")
	tr := trial{e: l.Engine("C", db)}
	var err error
	if tr.q, err = tr.e.AnalyzeSQL(l.Workload("C", "SkTH3J").SQLs()[0]); err != nil {
		t.Fatal(err)
	}
	tr.cur = engine.PConfiguration(tr.e)

	j := tr.q.Joins[0]
	ta, tb := tr.q.Tables[j.L.Tab].Table, tr.q.Tables[j.R.Tab].Table
	ca, cb := ta.Columns[j.L.Col].Name, tb.Columns[j.R.Col].Name
	view := conf.ViewDef{
		Name: "mv_trial",
		SQL: fmt.Sprintf("SELECT a.%s, b.%s FROM %s a, %s b WHERE a.%s = b.%s",
			ca, cb, ta.Name, tb.Name, ca, cb),
		BaseTables: []string{ta.Name, tb.Name},
	}
	var newIx conf.IndexDef
	for _, qt := range tr.q.Tables {
		for _, c := range qt.Table.IndexableColumns() {
			if d := (conf.IndexDef{Table: qt.Table.Name, Columns: []string{c}}); newIx.Table == "" && !tr.cur.HasIndex(d) {
				newIx = d
			}
		}
	}
	if newIx.Table == "" {
		t.Fatal("every single-column index is already in P")
	}
	tr.deltas = map[string]conf.Configuration{
		"index": {Indexes: []conf.IndexDef{newIx}},
		"view+index": {
			Views:   []conf.ViewDef{view},
			Indexes: []conf.IndexDef{{Table: view.Name, Columns: []string{"c0"}}},
		},
	}
	return tr
}

// TestTrialAndMergedBaseShareOneEntry pins the estimate key's order. A
// greedy round's trial (cur, X) and the next round's base cur+X must share
// one cache entry: the second estimate is a hit with an equal measure.
// The view-plus-index bundle is the case a key with the base's indexes
// before the delta's views would miss.
func TestTrialAndMergedBaseShareOneEntry(t *testing.T) {
	tr := newTrial(t)
	for name, x := range tr.deltas {
		w := tr.e.NewWhatIf()
		trial, err := w.EstimateWith(tr.q, mustResolve(t, w, tr.cur), x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		merged := tr.cur.Clone()
		merged.Views = append(merged.Views, x.Views...)
		merged.Indexes = append(merged.Indexes, x.Indexes...)
		rmerged := mustResolve(t, w, merged)
		_, before := engine.WhatIfCounters()
		got, err := w.EstimateWith(tr.q, rmerged, conf.Configuration{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, after := engine.WhatIfCounters(); after != before+1 {
			t.Errorf("%s: the merged base missed the trial's cache entry", name)
		}
		if got != trial {
			t.Errorf("%s: merged base estimates %v, the trial %v", name, got.Seconds, trial.Seconds)
		}
	}
}

// TestStaleResolvedHandle resolves a configuration, moves the engine to a
// new one, and uses the old handle: it must answer as a fresh session
// does. A handle used with another session is an error.
func TestStaleResolvedHandle(t *testing.T) {
	l := tinyLab()
	db := dbOfFamily("NREF2J")
	e := l.Engine("A", db)
	hypo := engine.OneColumnConfiguration(e)
	w := e.NewWhatIf()
	rh := mustResolve(t, w, hypo)
	var qs []*sql.Query
	var before []engine.Measure
	for _, sqlText := range l.Workload("A", "NREF2J").SQLs()[:6] {
		q, err := e.AnalyzeSQL(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.EstimateWith(q, rh, conf.Configuration{})
		if err != nil {
			t.Fatal(err)
		}
		qs, before = append(qs, q), append(before, m)
	}
	if _, err := e.Transition(hypo); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, q := range qs {
		got, err := w.EstimateWith(q, rh, conf.Configuration{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.NewWhatIf().Estimate(q, hypo)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("query %d: stale handle estimates %v, a fresh session %v", i, got.Seconds, want.Seconds)
		}
		moved = moved || want != before[i]
	}
	if !moved {
		t.Error("the transition moved no estimate: the test proves nothing")
	}
	if _, err := e.NewWhatIf().EstimateWith(qs[0], rh, conf.Configuration{}); err == nil {
		t.Error("another session accepted the handle")
	}
}

// TestEstimateHitAllocatesNothing: once an estimate is cached, asking for
// it again — through a resolved base plus either delta, or through
// Estimate — allocates nothing.
func TestEstimateHitAllocatesNothing(t *testing.T) {
	tr := newTrial(t)
	w := tr.e.NewWhatIf()
	rcur := mustResolve(t, w, tr.cur)
	for name, x := range tr.deltas {
		hit := func() {
			if _, err := w.EstimateWith(tr.q, rcur, x); err != nil {
				t.Fatal(err)
			}
		}
		hit() // the miss
		if n := testing.AllocsPerRun(20, hit); n != 0 {
			t.Errorf("EstimateWith, %s delta: a hit allocates %v times", name, n)
		}
	}
	hit := func() {
		if _, err := w.Estimate(tr.q, tr.cur); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, hit); n != 0 {
		t.Errorf("Estimate: a hit allocates %v times", n)
	}
}

// TestEstimateMissAllocatesOnlyItsEntry: a miss whose structures the
// session has already interned allocates its cache key and its share of
// the cache's growth, and nothing else: the physical description is
// assembled in the session's reused scratch and the optimizer searches in
// pooled scratch without building a plan. Each delta kind of the trial is
// extended by one two-column index on a query table per miss, so every
// estimate is a new key.
func TestEstimateMissAllocatesOnlyItsEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	tr := newTrial(t)
	var extra []conf.IndexDef
	for _, qt := range tr.q.Tables {
		cols := qt.Table.IndexableColumns()
		for _, a := range cols {
			for _, b := range cols {
				if d := (conf.IndexDef{Table: qt.Table.Name, Columns: []string{a, b}}); a != b && !tr.cur.HasIndex(d) {
					extra = append(extra, d)
				}
			}
		}
	}
	if len(extra) < 8 {
		t.Fatalf("only %d extra indexes", len(extra))
	}
	for name, x := range tr.deltas {
		w := tr.e.NewWhatIf()
		rcur := mustResolve(t, w, tr.cur)
		all := x.Clone()
		deltas := make([]conf.Configuration, len(extra))
		for i, d := range extra {
			deltas[i] = x.Clone()
			deltas[i].Indexes = append(deltas[i].Indexes, d)
			all.Indexes = append(all.Indexes, d)
		}
		mustResolve(t, w, all) // interns every structure the misses use
		miss := func(d conf.Configuration) {
			if _, err := w.EstimateWith(tr.q, rcur, d); err != nil {
				t.Fatal(err)
			}
		}
		miss(deltas[0]) // warms the session's miss scratch and the optimizer's pool
		_, hits := engine.WhatIfCounters()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, d := range deltas[1:] {
			miss(d)
		}
		runtime.ReadMemStats(&after)
		if _, now := engine.WhatIfCounters(); now != hits {
			t.Fatalf("%s: %d of %d estimates hit", name, now-hits, len(deltas)-1)
		}
		perMiss := float64(after.Mallocs-before.Mallocs) / float64(len(deltas)-1)
		t.Logf("%s delta: %.2f allocations per miss over %d misses", name, perMiss, len(deltas)-1)
		if perMiss > 1.5 {
			t.Errorf("%s delta: a miss allocates %.2f times; its key and entry take 1 and the cache's growth", name, perMiss)
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
	e := l.Engine("A", db)
	sqls := l.Workload("A", "NREF2J").SQLs()[:6]
	hypo := engine.OneColumnConfiguration(e)

	w := e.NewWhatIf()
	if _, err := core.WhatIfWorkload(w, sqls, hypo); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Transition(hypo); err != nil {
		t.Fatal(err)
	}
	after, err := core.WhatIfWorkload(w, sqls, hypo)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.WhatIfWorkload(e.NewWhatIf(), sqls, hypo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, after) {
		t.Error("session estimates after Transition differ from a fresh session")
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

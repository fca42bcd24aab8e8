package engine_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/recommender"
	"repro/internal/workload"
)

// nrefInP is a small NREF database in P under the profile.
func nrefInP(t *testing.T, prof engine.Profile) *engine.Engine {
	t.Helper()
	e := engine.New(catalog.NREF(), 0.0001, prof)
	if err := datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: 0.0001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	e.CollectStats()
	if _, err := e.ApplyConfig(engine.PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	return e
}

// nref2jPool samples n NREF2J texts by length, so that sampling analyzes
// nothing through the engine.
func nref2jPool(e *engine.Engine, n int) []string {
	fam := workload.NREF2J(e.Schema, e, workload.DefaultOptions())
	return fam.Sample(n, func(s string) float64 { return float64(len(s)) }, 3).SQLs()
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestLongLivedSessionStateIsBounded retunes 200 times over one pool of
// 30 NREF2J texts on one session, as recommender.Loop does: each retune
// recommends through the session and predicts the recommendation's cost
// on it. The configuration never changes, so the session never flushes.
// Its per-query state must stay at the pool's distinct texts, the
// engine's memo of analyzed queries at the texts (System B derives no
// views), and the heap after a GC flat: within 1 MiB of its size after
// the first ten retunes. A session that fingerprints every analysis it
// is given holds 60 more queries per retune.
func TestLongLivedSessionStateIsBounded(t *testing.T) {
	e := nrefInP(t, engine.SystemB())
	pool := nref2jPool(e, 30)
	distinct := make(map[string]bool)
	for _, s := range pool {
		distinct[s] = true
	}
	w := e.NewWhatIf()
	budget := w.EstimateSize(engine.OneColumnConfiguration(e))
	rec := recommender.New(e, recommender.SystemB()).UseSession(w)
	var first conf.Configuration
	var base uint64
	for i := range 200 {
		cfg, err := rec.Recommend(pool, budget)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.WhatIfWorkload(w, pool, cfg); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = cfg
		} else if !reflect.DeepEqual(cfg, first) {
			t.Fatalf("retune %d recommends %s, the first %s", i, cfg.Name, first.Name)
		}
		if fps, texts := engine.QueryState(w); fps > len(distinct) || texts > len(distinct) {
			t.Fatalf("after %d retunes: %d fingerprints and %d analyzed texts for %d distinct texts", i+1, fps, texts, len(distinct))
		}
		if i == 9 {
			base = heapInuse()
		}
	}
	if grown := int64(heapInuse()) - int64(base); grown > 1<<20 {
		t.Errorf("HeapInuse grew %d KiB over 190 retunes, want at most 1 MiB", grown>>10)
	}
	runtime.KeepAlive(w) // the session and its engine are what the heap is measured with
}

// TestForksRecommendThroughSharedAnalyses: two forks recommend
// concurrently for one pool, through the memo of analyzed queries they
// share, while the engine they were forked from transitions to 1C plus a
// view, runs the pool there and transitions back: view build, runs and
// both searches analyze through one memo and read the queries it shares.
// Each fork's recommendation is the one a sequential search on an engine
// of its own makes.
func TestForksRecommendThroughSharedAnalyses(t *testing.T) {
	e := nrefInP(t, engine.SystemB())
	pool := nref2jPool(e, 12)
	budget := e.NewWhatIf().EstimateSize(engine.OneColumnConfiguration(e))
	want, err := recommender.New(nrefInP(t, engine.SystemB()), recommender.SystemB()).Recommend(pool, budget)
	if err != nil {
		t.Fatal(err)
	}
	withView := engine.OneColumnConfiguration(e)
	withView.Views = append(withView.Views, conf.ViewDef{
		Name:       "mv_tax_org",
		SQL:        "SELECT t.nref_id, t.lineage, o.taxon_id FROM taxonomy t, organism o WHERE t.nref_id = o.nref_id",
		BaseTables: []string{"taxonomy", "organism"},
	})
	forks := []*engine.Engine{e.Fork(), e.Fork()}
	got := make([]conf.Configuration, len(forks))
	errs := make([]error, len(forks)+1)
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = recommender.New(f, recommender.SystemB()).Recommend(pool, budget)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[len(forks)] = func() error {
			if _, err := e.Transition(withView); err != nil {
				return err
			}
			for _, s := range pool {
				if _, _, err := e.Run(s, 0); err != nil {
					return err
				}
			}
			_, err := e.Transition(engine.PConfiguration(e))
			return err
		}()
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range forks {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("fork %d recommends %v, a sequential search %v", i, got[i], want)
		}
	}
}

package engine

import (
	"sync"
	"testing"

	"repro/internal/conf"
	"repro/internal/sql"
)

// TestConcurrentReadersWithWriter hammers the engine's read path — Run,
// Estimate and what-if estimation — from 32 goroutines while a writer
// periodically applies configurations, so `go test -race ./...` can
// prove the snapshot discipline sound. The what-if readers share a few
// long-lived sessions; once the writer is done each of them must answer
// exactly as a fresh session does — an estimate computed against an
// earlier snapshot must never have been stored after the session moved
// on.
func TestConcurrentReadersWithWriter(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	configs := configsUnderTest(e)
	hypo := OneColumnConfiguration(e)

	const readers = 32
	const iters = 6
	sessions := []*WhatIf{e.NewWhatIf(), e.NewWhatIf(), e.NewWhatIf(), e.NewWhatIf()}

	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := sessions[g%len(sessions)]
			for i := 0; i < iters; i++ {
				sqlText := testQueries[(g+i)%len(testQueries)]
				switch g % 3 {
				case 0:
					if _, _, err := e.Run(sqlText, 1800); err != nil {
						errc <- err
						return
					}
				case 1:
					if _, err := e.Estimate(sqlText); err != nil {
						errc <- err
						return
					}
				default:
					q, err := e.AnalyzeSQL(sqlText)
					if err != nil {
						errc <- err
						return
					}
					if _, err := w.Estimate(q, hypo); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2*len(configs); i++ {
			if _, err := e.ApplyConfig(configs[i%len(configs)]); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	fresh := e.NewWhatIf()
	for _, sqlText := range testQueries {
		q, err := e.AnalyzeSQL(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Estimate(q, hypo)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range sessions {
			if got, err := w.Estimate(q, hypo); err != nil || got != want {
				t.Errorf("session %d: %v, %v; a fresh session says %v", i, got.Seconds, err, want.Seconds)
			}
		}
	}
}

// TestConcurrentWhatIfSharedSession drives one shared what-if session
// from many goroutines: the derivation caches must be internally
// consistent (every goroutine sees the same derived estimate).
func TestConcurrentWhatIfSharedSession(t *testing.T) {
	e := testNREF(t, SystemB())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	hypo := OneColumnConfiguration(e)
	w := e.NewWhatIf()

	q, err := e.AnalyzeSQL(testQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Estimate(q, hypo)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]float64, 16)
	errs := make([]error, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, err := w.Estimate(q, hypo)
			results[g], errs[g] = m.Seconds, err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if results[g] != want.Seconds {
			t.Errorf("goroutine %d: estimate %v, want %v", g, results[g], want.Seconds)
		}
	}

	// Eight goroutines share one resolved handle, filling its per-query
	// memo concurrently, and must agree with Estimate on every query.
	qs := make([]*sql.Query, len(testQueries))
	wants := make([]Measure, len(testQueries))
	for i, sqlText := range testQueries {
		if qs[i], err = e.AnalyzeSQL(sqlText); err != nil {
			t.Fatal(err)
		}
		if wants[i], err = w.Estimate(qs[i], hypo); err != nil {
			t.Fatal(err)
		}
	}
	rh, err := w.Resolve(hypo)
	if err != nil {
		t.Fatal(err)
	}
	const sharers = 8
	got := make([][]Measure, sharers)
	errs = make([]error, sharers)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]Measure, len(qs))
			for k := range qs {
				i := (g + k) % len(qs)
				if got[g][i], errs[g] = w.EstimateWith(qs[i], rh, conf.Configuration{}); errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if got[g][i] != wants[i] {
				t.Errorf("sharer %d, query %d: estimate %v, want %v", g, i, got[g][i].Seconds, wants[i].Seconds)
			}
		}
	}
}

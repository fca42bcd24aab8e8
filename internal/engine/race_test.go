package engine

import (
	"sync"
	"testing"
)

// TestConcurrentReadersWithWriter hammers the engine's read path — Run,
// Estimate and what-if estimation — from 32 goroutines while a writer
// periodically applies configurations, so `go test -race ./...` can
// prove the snapshot discipline sound. Each what-if reader owns one
// long-lived session; once the writer is done each of them must answer
// exactly as a fresh session does — a session carried across snapshots
// must never answer from an estimate of an earlier one.
func TestConcurrentReadersWithWriter(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	configs := configsUnderTest(e)
	hypo := OneColumnConfiguration(e)

	const readers = 32
	const iters = 6
	sessions := make([]*WhatIf, readers)
	for g := 2; g < readers; g += 3 {
		sessions[g] = e.NewWhatIf()
	}

	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := sessions[g]
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
			if w == nil {
				continue
			}
			if got, err := w.Estimate(q, hypo); err != nil || got != want {
				t.Errorf("session %d: %v, %v; a fresh session says %v", i, got.Seconds, err, want.Seconds)
			}
		}
	}
}

package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/conf"
	"repro/internal/engine"
)

// DefaultTimeout is the paper's per-query timeout: 30 minutes.
const DefaultTimeout = 1800.0

// Runner executes workloads with a bounded worker pool. Results are
// deterministic and order-stable: measure i always belongs to query i,
// and because the simulated clock is per-query, the measured times are
// bit-for-bit identical no matter how many workers run — parallelism
// changes wall-clock time, never the reported numbers.
//
// The zero value runs with GOMAXPROCS workers; Parallelism of 1 runs
// inline on the calling goroutine (the exact sequential code path).
type Runner struct {
	// Parallelism is the maximum number of queries in flight at once.
	// 0 or negative means runtime.GOMAXPROCS(0).
	Parallelism int

	// OnMeasure, when non-nil, is called by RunWorkload for every
	// completed query from the worker that ran it, as it completes —
	// the hook live dashboards and daemons count traffic with. It must
	// be safe for concurrent use and must not block; it has no effect
	// on the returned measures. Estimate passes do not report.
	OnMeasure func(Measure)
}

// workers resolves the effective pool size.
func (r Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs fn(i) for i in [0, n) on the pool. Every index is processed
// exactly once; on error the lowest-index error is returned, so the
// reported failure is the one the sequential path would hit first. This
// is the primitive query execution and estimation fan out through:
// callers write results into index i of a pre-sized slice and reduce
// sequentially afterwards, which keeps the outcome byte-identical at any
// parallelism.
func (r Runner) Each(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunWorkload executes every query under the engine's current
// configuration with the timeout, returning the A(q, C) measures in
// workload order.
func (r Runner) RunWorkload(e *engine.Engine, queries []string, timeout float64) ([]Measure, error) {
	out := make([]Measure, len(queries))
	err := r.Each(len(queries), func(i int) error {
		_, m, err := e.Run(queries[i], timeout)
		if err != nil {
			return fmt.Errorf("core: running %q: %w", queries[i], err)
		}
		out[i] = Measure{SQL: queries[i], Seconds: m.Seconds, TimedOut: m.TimedOut}
		if r.OnMeasure != nil {
			r.OnMeasure(out[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateWorkload returns the optimizer estimates E(q, C) under the
// current configuration.
func (r Runner) EstimateWorkload(e *engine.Engine, queries []string) ([]Measure, error) {
	out := make([]Measure, len(queries))
	err := r.Each(len(queries), func(i int) error {
		m, err := e.Estimate(queries[i])
		if err != nil {
			return fmt.Errorf("core: estimating %q: %w", queries[i], err)
		}
		out[i] = Measure{SQL: queries[i], Seconds: m.Seconds}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WhatIfWorkload returns, in workload order, the hypothetical estimates
// H(q, Ch, Ca) for the configuration Ch seen from the engine's current
// configuration, priced on the caller's what-if session. The
// configuration is resolved once and every query estimated against it,
// so the per-structure statistics derivation is paid once; a long-lived
// session (the retune loop's) also finds the estimates its recommender
// search cached.
func WhatIfWorkload(w *engine.WhatIf, queries []string, hypo conf.Configuration) ([]Measure, error) {
	e := w.Engine()
	rh, err := w.Resolve(hypo)
	if err != nil {
		return nil, fmt.Errorf("core: what-if: %w", err)
	}
	out := make([]Measure, len(queries))
	for i, text := range queries {
		q, err := e.AnalyzeSQL(text)
		if err != nil {
			return nil, fmt.Errorf("core: analyzing %q: %w", text, err)
		}
		m, err := w.EstimateWith(q, rh, conf.Configuration{})
		if err != nil {
			return nil, fmt.Errorf("core: what-if %q: %w", text, err)
		}
		out[i] = Measure{SQL: text, Seconds: m.Seconds}
	}
	return out, nil
}

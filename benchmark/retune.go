package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/recommender"
)

// retuner reconfigures the live engine beside the reads, doing what
// gateway.tuner.retune does: a recommender search on one shared what-if
// session, then Engine.Transition. Retunes are serialized on one
// goroutine and none is dropped, so their count is fixed by the
// schedule.
type retuner struct {
	lab    *lab
	whatif *engine.WhatIf
	tr     *tracer // may be nil

	triggers chan int       // buffered to the number of retunes the schedule holds
	pending  sync.WaitGroup // retunes triggered and not yet finished
	wg       sync.WaitGroup

	// The goroutine appends under mu; readers wait for stop first.
	mu         sync.Mutex
	recommends []time.Duration // conflint:guardedby mu
	spans      [][2]time.Time  // conflint:guardedby mu (Transition intervals)
	err        error           // conflint:guardedby mu
}

// startRetuner launches the retune goroutine; capacity is the number of
// triggers the whole schedule will fire.
func startRetuner(l *lab, tr *tracer, capacity int) *retuner {
	r := &retuner{lab: l, whatif: l.backend.Engine.NewWhatIf(), tr: tr, triggers: make(chan int, capacity)}
	r.wg.Add(1)
	// conflint:worker lifecycle=triggers retune loop; retuner.stop closes triggers and waits on wg
	go func() {
		defer r.wg.Done()
		for k := range r.triggers {
			r.retune(k)
			r.pending.Done()
		}
	}()
	return r
}

// retune k recommends over the pool of family k mod 2 and applies the
// result.
func (r *retuner) retune(k int) {
	eng := r.lab.backend.Engine
	pool := r.lab.backend.Pools[r.lab.w.families[k%len(r.lab.w.families)]]
	t0 := time.Now()
	cfg, err := recommender.New(eng, recommender.SystemB()).Parallel(1).UseSession(r.whatif).Recommend(pool, r.lab.backend.Budget)
	t1 := time.Now()
	if err == nil {
		cfg.Name = "bench-retune"
		_, err = eng.Transition(cfg)
	}
	t2 := time.Now()
	if r.tr != nil {
		r.tr.record("recommender.loaded", -k, t0, t1)
		r.tr.record("engine.transition.loaded", -k, t1, t2)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("retune %d: %w", k, err)
		}
		return
	}
	r.recommends = append(r.recommends, t1.Sub(t0))
	r.spans = append(r.spans, [2]time.Time{t1, t2})
}

// transitionMS is how long each Transition took, in milliseconds. Call
// it after stop.
func (r *retuner) transitionMS() []float64 {
	out := make([]float64, len(r.spans))
	for i, s := range r.spans {
		out[i] = ms(s[1].Sub(s[0]))
	}
	return out
}

// wrap returns an op that fires a retune when a position that is a
// multiple of every (counted from offset) is issued, then issues it.
func (r *retuner) wrap(do op, offset, every int) op {
	return func(pos int) (time.Time, bool) {
		if g := offset + pos; g > 0 && g%every == 0 {
			r.pending.Add(1)
			r.triggers <- g / every
		}
		return do(pos)
	}
}

// quiesce waits until every retune triggered so far has finished. It
// is called between phases, when no sender can trigger another.
func (r *retuner) quiesce() { r.pending.Wait() }

// stop ends the goroutine after its queue drains and reports the first
// retune error.
func (r *retuner) stop() error {
	close(r.triggers)
	r.wg.Wait()
	return r.err
}

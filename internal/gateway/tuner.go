package gateway

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/recommender"
)

// tuner is the gateway's autonomic loop: when any tenant's sliding
// window violates its goal, finish nudges the tuner, which recommends
// a configuration over the union of all tenants' recent queries and
// applies it with the engine's incremental Transition — while traffic
// keeps flowing on the engine's concurrent read path (the same
// serve-while-retuning posture as the autopilot daemon).
//
// One worker goroutine serializes retunes.
type tuner struct {
	g      *Gateway
	recCfg recommender.Config
	whatif *engine.WhatIf
	budget int64
	w      *worker

	applied atomic.Int64
	failed  atomic.Int64
	// lastErr is the most recent failed retune's reason (nil until one
	// fails), served as retune_last_error in /v1/stats.
	lastErr atomic.Pointer[string]
}

// worker is the tuner's and the autoscaler's coalescing trigger: with
// capacity 1, signals arriving mid-run collapse into one more run. Each
// owner spawns its own `for range w.trigger` loop, so conflint still
// sees the body it runs as a static call.
type worker struct {
	trigger chan struct{}
	done    chan struct{}
	stop1   sync.Once
}

func newWorker() *worker {
	return &worker{trigger: make(chan struct{}, 1), done: make(chan struct{})}
}

// signal asks for one more run without blocking the hot path.
func (w *worker) signal() {
	select {
	case w.trigger <- struct{}{}:
	default:
	}
}

// stop ends the loop and waits for the in-flight run: a Transition or
// reshard must publish or fail before Shutdown returns (the ordering
// contract shared with autopilotd). Repeated calls return.
func (w *worker) stop() {
	w.stop1.Do(func() { close(w.trigger) })
	<-w.done
}

func newTuner(g *Gateway, recCfg recommender.Config, whatif *engine.WhatIf, budget int64) *tuner {
	return &tuner{
		g:      g,
		recCfg: recCfg,
		whatif: whatif,
		budget: budget,
		w:      newWorker(),
	}
}

// start launches the retune loop.
func (tn *tuner) start() {
	// conflint:worker lifecycle=trigger retune loop; worker.stop closes trigger and waits on done
	go func() {
		defer close(tn.w.done)
		for range tn.w.trigger {
			tn.retune()
		}
	}()
}

// retune recommends over the union of every tenant's recent distinct
// queries (all tenants share one engine, so the configuration must serve
// the blended workload) and applies the result incrementally.
func (tn *tuner) retune() {
	sqls := make([]string, 0, recentSQLCap)
	seen := make(map[string]bool, recentSQLCap)
	for _, name := range tn.g.tenantOrder {
		for _, s := range tn.g.tenants[name].recentQueries() {
			if !seen[s] {
				seen[s] = true
				sqls = append(sqls, s)
			}
		}
	}
	if len(sqls) == 0 {
		return
	}
	cfg, err := recommender.New(tn.g.eng(), tn.recCfg).
		Parallel(1).
		UseSession(tn.whatif).
		Recommend(sqls, tn.budget)
	if err != nil {
		tn.fail(fmt.Errorf("recommend: %w", err))
		return
	}
	cfg.Name = "gw-retune"
	if err := tn.g.transition(cfg); err != nil {
		tn.fail(fmt.Errorf("transition: %w", err))
		return
	}
	tn.applied.Add(1)
}

// fail keeps a failed retune's reason, then counts it — in that order,
// so a reader that sees the count sees a reason.
func (tn *tuner) fail(err error) {
	msg := err.Error()
	tn.lastErr.Store(&msg)
	tn.failed.Add(1)
}

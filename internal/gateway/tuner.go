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
// One tuner goroutine serializes retunes; nudges arriving mid-retune
// coalesce into at most one pending trigger.
type tuner struct {
	g      *Gateway
	recCfg recommender.Config
	whatif *engine.WhatIf
	budget int64

	// trigger wakes the worker. Capacity 1: sends are non-blocking, so a
	// burst of violations collapses into one retune.
	trigger chan struct{}
	done    chan struct{}
	stop1   sync.Once

	applied atomic.Int64
	failed  atomic.Int64
	// lastErr is the most recent failed retune's reason (nil until one
	// fails), served as retune_last_error in /v1/stats.
	lastErr atomic.Pointer[string]
}

func newTuner(g *Gateway, recCfg recommender.Config, whatif *engine.WhatIf, budget int64) *tuner {
	return &tuner{
		g:       g,
		recCfg:  recCfg,
		whatif:  whatif,
		budget:  budget,
		trigger: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// start launches the retune loop.
func (tn *tuner) start() {
	// conflint:worker lifecycle=trigger retune loop; tuner.stop closes trigger and waits on done
	go func() {
		defer close(tn.done)
		for range tn.trigger {
			tn.retune()
		}
	}()
}

// signal nudges the tuner without blocking the hot path.
func (tn *tuner) signal() {
	select {
	case tn.trigger <- struct{}{}:
	default:
	}
}

// stop ends the loop and waits for an in-flight retune to finish — a
// Transition builds the next engine snapshot beside the serving one, and
// Shutdown must not return until it has published or failed (the
// shutdown-ordering contract shared with autopilotd).
func (tn *tuner) stop() {
	tn.stop1.Do(func() { close(tn.trigger) })
	<-tn.done
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

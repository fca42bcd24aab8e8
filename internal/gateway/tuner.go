package gateway

import (
	"sync"
	"sync/atomic"

	"repro/internal/recommender"
)

// tuner is the gateway's owner of the shared retune loop: when any
// tenant's sliding window violates its goal, finish nudges the tuner,
// which runs the loop over all tenants' recent queries and applies new
// structures with an incremental Transition while traffic keeps flowing
// (the autopilot daemon's serve-while-retuning posture). One worker
// goroutine serializes retunes.
type tuner struct {
	g    *Gateway
	loop *recommender.Loop
	w    *worker

	applied, unchanged, failed atomic.Int64
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

func newTuner(g *Gateway, loop *recommender.Loop) *tuner {
	return &tuner{g: g, loop: loop, w: newWorker()}
}

// start launches the retune loop.
func (tn *tuner) start() {
	// conflint:worker retune loop; worker.stop closes trigger and waits on done
	go func() {
		defer close(tn.w.done)
		for range tn.w.trigger {
			tn.retune()
		}
	}()
}

// retune runs the loop over the union of every tenant's recent distinct
// queries: all tenants share one engine, so the configuration must serve
// the blended workload, and that set of texts is the mix the loop
// compares with the one it last tuned for. Every nudge is a violation,
// so a set already tuned for ends here, before any search. A
// recommendation with the serving configuration's structures is counted,
// not applied: its Transition would build and drop nothing.
func (tn *tuner) retune() {
	mix := make(map[string]int)
	var sqls []string
	for _, name := range tn.g.tenantOrder {
		for _, s := range tn.g.tenants[name].recentQueries() {
			mix[s] = 1
			sqls = append(sqls, s)
		}
	}
	reason := tn.loop.Decide(mix, true)
	if reason == "" || len(mix) == 0 {
		return
	}
	cfg, rec := tn.loop.Retune(reason, mix, sqls)
	if rec.Err != "" {
		tn.fail("recommend: " + rec.Err)
		return
	}
	if cfg.SameStructures(tn.g.eng().Current()) {
		tn.unchanged.Add(1)
		return
	}
	cfg.Name = "gw-retune"
	if err := tn.g.transition(cfg); err != nil {
		tn.fail("transition: " + err.Error())
		return
	}
	tn.applied.Add(1)
}

// fail keeps a failed retune's reason, then counts it — in that order,
// so a reader that sees the count sees a reason.
func (tn *tuner) fail(msg string) {
	tn.lastErr.Store(&msg)
	tn.failed.Add(1)
}

package gateway

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/shard"
)

// autoscaler is the gateway's elastic loop: every completed query lands
// in an accumulating window; when the window fills it is graded into
// shard.WindowMetrics (goal level over the window's CFC, mean simulated
// seconds, queue backlog) and handed — off the hot path — to the shard
// package's pure Propose and side-effecting Updater, which may reshard
// the cluster or resize its worker pool live, within the configured
// bounds. In dry-run mode every proposal is counted but nothing mutates.
//
// One worker goroutine serializes scale actions, as in the tuner.
type autoscaler struct {
	g    *Gateway
	cl   *shard.Cluster
	goal core.Goal
	upd  *shard.Updater

	mu      sync.Mutex
	entries []core.Measure        // conflint:guardedby mu (accumulating window)
	errored int                   // conflint:guardedby mu
	windowN int                   // conflint:guardedby mu (windows closed so far)
	pending []shard.WindowMetrics // conflint:guardedby mu (closed, unevaluated)

	windows atomic.Int64 // windows evaluated

	w *worker // bursts of window closes collapse into one drain of pending
}

func newAutoscaler(g *Gateway, cl *shard.Cluster) *autoscaler {
	return &autoscaler{
		g:    g,
		cl:   cl,
		goal: goalOf(g.cfg.AutoscaleGoal),
		upd: shard.NewUpdater(cl, shard.Bounds{
			MinShards: g.cfg.MinShards, MaxShards: g.cfg.MaxShards,
			MinPool: g.cfg.MinPool, MaxPool: g.cfg.MaxPool,
		}, g.cfg.AutoscaleCooldown, g.cfg.AutoscaleDryRun),
		entries: make([]core.Measure, 0, g.cfg.AutoscaleWindow),
		w:       newWorker(),
	}
}

// start launches the scale worker.
func (as *autoscaler) start() {
	// conflint:worker autoscale loop; worker.stop closes trigger and waits on done
	go func() {
		defer close(as.w.done)
		for range as.w.trigger {
			as.drain()
		}
	}()
}

// observe folds one completion into the accumulating window; on the
// hot path it only appends and, at a window boundary, grades and
// enqueues the metrics — the expensive reshard work happens on the
// worker goroutine.
func (as *autoscaler) observe(seconds float64, timedOut, errored bool) {
	as.mu.Lock()
	if errored {
		as.errored++
	} else {
		as.entries = append(as.entries, core.Measure{Seconds: seconds, TimedOut: timedOut})
	}
	if len(as.entries)+as.errored < as.g.cfg.AutoscaleWindow {
		as.mu.Unlock()
		return
	}
	w := as.closeWindowLocked()
	as.pending = append(as.pending, w)
	as.mu.Unlock()
	as.w.signal()
}

// closeWindowLocked grades the filled window into the record Propose
// evaluates: its digest's query count, mean over the queries that
// finished and goal level, and the queue backlog read now, at close.
func (as *autoscaler) closeWindowLocked() shard.WindowMetrics {
	d := core.DigestOf(as.entries, as.goal, 0)
	as.windowN++
	as.entries = as.entries[:0]
	as.errored = 0
	return shard.WindowMetrics{
		Window:      as.windowN,
		Queries:     d.Queries,
		MeanSeconds: d.FinishedMean,
		GoalLevel:   d.Satisfaction,
		QueueDepth:  as.g.queueDepth(),
	}
}

// drain evaluates every pending window in order.
func (as *autoscaler) drain() {
	for {
		as.mu.Lock()
		if len(as.pending) == 0 {
			as.mu.Unlock()
			return
		}
		w := as.pending[0]
		as.pending = as.pending[1:]
		as.mu.Unlock()

		cur := shard.State{Shards: as.cl.Shards(), Pool: as.cl.Pool()}
		as.upd.Apply(w.Window, cur, shard.Propose(cur, w, as.g.cfg.AutoscaleTarget))
		as.windows.Add(1)
	}
}

// queueDepth sums the tenants' backlogs: queries admitted but not yet
// holding a run slot.
func (g *Gateway) queueDepth() float64 {
	var depth int
	for _, name := range g.tenantOrder {
		t := g.tenants[name]
		depth += len(t.slots) - len(t.run)
	}
	return float64(depth)
}

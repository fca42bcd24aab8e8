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
// package's pure Recommender and side-effecting Updater, which may
// reshard the cluster or resize its worker pool live, within the
// configured bounds. In dry-run mode every proposal is audited but
// nothing mutates.
//
// The worker mirrors the tuner's shape: one goroutine serializes scale
// actions, windows arriving mid-action coalesce into at most one
// pending evaluation.
type autoscaler struct {
	g    *Gateway
	cl   *shard.Cluster
	goal core.Goal
	rec  *shard.Recommender
	upd  *shard.Updater

	mu      sync.Mutex
	entries []core.Measure        // conflint:guardedby mu (accumulating window)
	errored int                   // conflint:guardedby mu
	windowN int                   // conflint:guardedby mu (windows closed so far)
	pending []shard.WindowMetrics // conflint:guardedby mu (closed, unevaluated)

	windows atomic.Int64 // windows evaluated

	// trigger wakes the worker; capacity 1 so bursts of window closes
	// collapse into one drain of the pending list.
	trigger chan struct{}
	done    chan struct{}
	stop1   sync.Once
}

func newAutoscaler(g *Gateway, cl *shard.Cluster) *autoscaler {
	upd := shard.NewUpdater(cl, shard.Bounds{
		MinShards: g.cfg.MinShards, MaxShards: g.cfg.MaxShards,
		MinPool: g.cfg.MinPool, MaxPool: g.cfg.MaxPool,
	}, g.cfg.AutoscaleDryRun)
	upd.Cooldown = g.cfg.AutoscaleCooldown
	return &autoscaler{
		g:    g,
		cl:   cl,
		goal: g.cfg.autoscaleGoalOf(),
		rec: &shard.Recommender{
			Rules:   shard.DefaultRules(g.cfg.AutoscaleTarget),
			Predict: cl.PredictSeconds,
		},
		upd:     upd,
		entries: make([]core.Measure, 0, g.cfg.AutoscaleWindow),
		trigger: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// start launches the scale worker.
func (as *autoscaler) start() {
	// conflint:worker lifecycle=trigger autoscale loop; autoscaler.stop closes trigger and waits on done
	go func() {
		defer close(as.done)
		for range as.trigger {
			as.drain()
		}
	}()
}

// stop ends the loop and waits out an in-flight reshard — a reshard
// builds the next topology beside the serving one, and Shutdown must not
// return until it has swapped in or failed (the same shutdown-ordering
// contract as the tuner's Transition).
func (as *autoscaler) stop() {
	as.stop1.Do(func() { close(as.trigger) })
	<-as.done
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
	select {
	case as.trigger <- struct{}{}:
	default:
	}
}

// closeWindowLocked grades the filled window into the record the
// scaling rules evaluate: mean simulated seconds over the queries that
// finished, goal level over the window's CFC, and the live queue backlog.
func (as *autoscaler) closeWindowLocked() shard.WindowMetrics {
	var sum float64
	n := 0
	for _, e := range as.entries {
		if !e.TimedOut {
			sum += e.Seconds
			n++
		}
	}
	as.windowN++
	w := shard.WindowMetrics{
		Window:     as.windowN,
		Queries:    len(as.entries),
		GoalLevel:  as.goal.Satisfaction(core.NewCFC(as.entries, 0)),
		QueueDepth: as.g.queueDepth(),
	}
	if n > 0 {
		w.MeanSeconds = sum / float64(n)
	}
	as.entries = as.entries[:0]
	as.errored = 0
	return w
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
		as.upd.Apply(as.rec.Recommend(cur, w))
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

package autopilot

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recommender"
)

// Decision is the controller's verdict on one window report.
type Decision struct {
	Retune bool
	Reason string
}

// RetuneRecord documents one configuration change: why it was triggered,
// what it built, what the what-if estimator promised, and (once the next
// full window has been served) what it delivered. WallMS is the only
// wall-clock field and never appears in rendered reports.
type RetuneRecord struct {
	// Window is the index of the report that triggered the tune
	// (-1 for the warmup tune that precedes traffic).
	Window int
	Reason string
	Name   string

	Built, Kept, Dropped int
	BuildSeconds         float64

	// PredictedMean is the what-if mean seconds per query for the
	// triggering window's queries under the new configuration.
	PredictedMean float64

	WallMS int64
	Err    string
}

// controller decides when to retune and performs the retunes. Launching
// and considering happen on the autopilot's loop goroutine; the retune
// body itself may run concurrently with query traffic — its reads go
// through the engine's what-if session (lock-free against the published
// snapshot) and its apply goes through Transition (which publishes the
// next snapshot atomically), so traffic and tuning interleave safely.
type controller struct {
	eng     *engine.Engine
	runner  core.Runner
	budget  int64
	profile string // "A", "B", "C" or "1C"
	recCfg  recommender.Config
	timeout float64

	// threshold is the L1/2 mixture distance beyond which the observed
	// mix counts as shifted from the one last tuned for.
	threshold float64

	lastTuneMix  []float64
	tunedThisMix bool
	epoch        int

	// whatif is the controller's long-lived estimation session. The
	// recommender search and the post-search prediction share its
	// relevance-keyed cache; the session flushes itself when a
	// Transition publishes a new engine snapshot, so it stays correct
	// across retunes.
	whatif *engine.WhatIf

	metrics *Metrics
}

// consider inspects a window report and decides whether to retune. A
// mixture shift always warrants a retune (the configuration was chosen
// for a different workload); a goal violation warrants one only if the
// current mix has not already been tuned for — retrying an identical
// problem would churn structures for nothing.
//
// conflint:pure — the controller's propose/apply split: deciding is an
// observation of the report, and only launch (loop-goroutine-only)
// commits state. A consider that mutated the controller could skew
// every later window's decision.
func (c *controller) consider(rep WindowReport) Decision {
	mix := proportions(rep.Mix)
	shifted := c.lastTuneMix != nil && l1Half(mix, c.lastTuneMix) > c.threshold
	violated := !rep.Satisfied
	switch {
	case shifted && violated:
		return Decision{true, "mix-shift+goal-violation"}
	case shifted:
		return Decision{true, "mix-shift"}
	case violated && !c.tunedThisMix:
		return Decision{true, "goal-violation"}
	}
	return Decision{}
}

// l1Half is half the L1 distance between two distributions: the total
// probability mass that moved.
func l1Half(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		if x < 0 {
			x = -x
		}
		d += x
	}
	return d / 2
}

// retuneJob is one in-flight retune.
type retuneJob struct {
	done chan struct{}
	rec  RetuneRecord
}

// launch starts a retune for the mix observed in qsMix over the window's
// queries. Call only from the loop goroutine, and only with no other job
// in flight. The epoch is assigned here so configuration names do not
// depend on goroutine scheduling.
func (c *controller) launch(window int, reason string, sqls []string, mix []FamilyCount) *retuneJob {
	c.epoch++
	name := fmt.Sprintf("R%d", c.epoch)
	c.lastTuneMix = proportions(mix)
	c.tunedThisMix = true
	job := &retuneJob{done: make(chan struct{})}
	job.rec = RetuneRecord{Window: window, Reason: reason, Name: name}
	if c.metrics != nil {
		c.metrics.RetunesInFlight.Add(1)
	}
	go c.retune(job, sqls)
	return job
}

// retune recommends, predicts and transitions. It runs off the loop
// goroutine in overlapped mode; everything it touches on the engine is
// lock-protected.
func (c *controller) retune(job *retuneJob, sqls []string) {
	defer close(job.done)
	// conflint:ignore WallMS is wall-clock observability for the operator; it is excluded from all rendered reports
	start := time.Now()
	rec := &job.rec
	defer func() {
		// conflint:ignore WallMS is wall-clock observability for the operator; it is excluded from all rendered reports
		rec.WallMS = time.Since(start).Milliseconds()
		if c.metrics != nil {
			c.metrics.RetunesInFlight.Add(-1)
			c.metrics.RetuneWallMS.Add(rec.WallMS)
			if rec.Err == "" {
				c.metrics.RetunesApplied.Add(1)
				c.metrics.StructuresBuilt.Add(int64(rec.Built))
				c.metrics.StructuresDropped.Add(int64(rec.Dropped))
			} else {
				c.metrics.RetuneErrors.Add(1)
			}
		}
	}()

	var cfg conf.Configuration
	if c.profile == "1C" {
		cfg = engine.OneColumnConfiguration(c.eng)
	} else {
		var err error
		cfg, err = recommender.New(c.eng, c.recCfg).
			Parallel(c.runner.Parallelism).
			UseSession(c.whatif).
			Recommend(dedupe(sqls), c.budget)
		if err != nil {
			rec.Err = err.Error()
			return
		}
	}
	cfg.Name = rec.Name

	// Predict before applying: what-if mean for the triggering window's
	// queries under the candidate, seen from the current configuration.
	// The prediction reuses the search's session, so the winning
	// configuration's estimates are usually already cached.
	hyp, err := c.runner.WhatIfSessionWorkload(c.whatif, sqls, cfg)
	if err != nil {
		rec.Err = err.Error()
		return
	}
	var total float64
	for _, m := range hyp {
		s := m.Seconds
		if c.timeout > 0 && s > c.timeout {
			s = c.timeout
		}
		total += s
	}
	if len(hyp) > 0 {
		rec.PredictedMean = total / float64(len(hyp))
	}

	rep, err := c.eng.Transition(cfg)
	if err != nil {
		rec.Err = err.Error()
		return
	}
	rec.Built, rec.Kept, rec.Dropped = rep.Built, rep.Kept, rep.Dropped
	rec.BuildSeconds = rep.BuildSeconds
}

// dedupe returns the sorted distinct queries of a window: the stream
// draws with replacement, but the recommender wants the workload's
// support, not its multiset.
func dedupe(sqls []string) []string {
	seen := make(map[string]bool, len(sqls))
	out := make([]string, 0, len(sqls))
	for _, s := range sqls {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

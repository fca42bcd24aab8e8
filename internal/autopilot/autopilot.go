// Package autopilot runs the benchmark as a long-lived autonomic control
// loop instead of a batch. Where the paper evaluates a recommender as a
// one-shot oracle — recommend, apply, replay a frozen 100-query sample —
// the autopilot serves an unbounded, seeded stream of family queries
// through the engine's concurrent read path, observes sliding windows of
// live measurements, and lets a controller retune the configuration (via
// the recommender and the engine's incremental Transition) while traffic
// keeps flowing.
//
// The split:
//
//   - Stream     — seeded mixture-of-families query source with a drift
//     schedule that shifts the mix over time (stream.go)
//   - observe    — each window graded by core.DigestOf, plus its
//     estimate-vs-actual ratios (observer.go)
//   - recommender.Loop — decides on mix shifts and goal violations,
//     recommends and predicts; Run applies its configurations with
//     Transition (retune, below)
//   - Metrics    — atomic counters + /metrics and /healthz handlers
//     (metrics.go)
//
// In bounded mode (Options.Windows > 0) with Options.Sync set, a run is
// fully deterministic: same seed ⇒ byte-identical window reports at any
// parallelism, mirroring the batch runner's determinism guarantee. With
// Sync off, transitions are applied concurrently with the next window's
// traffic — the daemon's production posture.
package autopilot

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recommender"
	"repro/internal/workload"
)

// Options configures one autopilot instance.
type Options struct {
	// System selects the engine profile ("A", "B" or "C").
	System string
	// Recommender selects the tuner: a system profile name or "1C" for
	// the paper's reference configuration as a baseline. Empty = System.
	Recommender string

	// Families is the initial stream mixture. All families must live on
	// the same database.
	Families []FamilyShare
	// Drift, when non-nil, shifts the mixture at a window boundary.
	Drift *Drift

	Scale float64
	Seed  int64
	// PoolSize is the per-family sampled pool the stream draws from
	// (the paper's workloads use 100).
	PoolSize int

	// WindowSize is queries per observation window.
	WindowSize int
	// Windows bounds the run; 0 streams until the context is canceled.
	Windows int

	// Parallelism is the query fan-out within a window (core.Runner).
	Parallelism int

	// Goal is the QoS target; zero value = the paper's Example 2 goal.
	Goal core.Goal

	// MixShiftThreshold is the moved-probability-mass fraction beyond
	// which the controller treats the mix as shifted (default 0.25).
	MixShiftThreshold float64

	// Timeout is the per-query simulated timeout (default 1800s).
	Timeout float64

	// Sync applies transitions at window boundaries instead of
	// overlapping them with the next window's traffic. Deterministic;
	// used by tests and CI.
	Sync bool

	// Warmup tunes once on a warmup window before serving, so traffic
	// starts under a configuration fitted to the initial mix.
	Warmup bool

	// Static freezes the configuration after warmup: the decaying
	// baseline the drift experiment compares against.
	Static bool
}

func (o *Options) setDefaults() {
	if o.System == "" {
		o.System = "B"
	}
	if o.Recommender == "" {
		o.Recommender = o.System
	}
	if o.Scale == 0 {
		o.Scale = 0.0002
	}
	if o.PoolSize == 0 {
		o.PoolSize = 30
	}
	if o.WindowSize == 0 {
		o.WindowSize = 24
	}
	if len(o.Goal.Steps) == 0 {
		o.Goal = core.Example2Goal()
	}
	if o.MixShiftThreshold == 0 {
		o.MixShiftThreshold = 0.25
	}
	if o.Timeout == 0 {
		o.Timeout = core.DefaultTimeout
	}
}

// Autopilot is one assembled control loop over one engine.
type Autopilot struct {
	opts     Options
	eng      *engine.Engine
	stream   *Stream
	runner   core.Runner
	estR     core.Runner // no OnMeasure hook: estimates are not traffic
	loop     *recommender.Loop
	metrics  *Metrics
	famOrder []string

	curName string
	// epoch numbers the retunes; it is assigned on the loop goroutine, so
	// configuration names do not depend on goroutine scheduling.
	epoch int
}

// New loads the engine and family pools through a bench.Lab (the PR 1
// substrate: loading, stratified sampling and the storage budget are the
// batch benchmark's own) and assembles the control loop. The lab is not
// retained: once traffic starts, the autopilot owns the engine's
// configuration lifecycle.
func New(opts Options) (*Autopilot, error) {
	// Zero means the default; a negative or NaN value would load a
	// degenerate database or, as a timeout, switch the per-query limit
	// off. Written so that NaN fails too.
	if !(opts.Scale >= 0) {
		return nil, fmt.Errorf("autopilot: scale must be >= 0, got %v", opts.Scale)
	}
	if !(opts.Timeout >= 0) {
		return nil, fmt.Errorf("autopilot: timeout must be >= 0, got %v", opts.Timeout)
	}
	opts.setDefaults()
	if len(opts.Families) == 0 {
		return nil, fmt.Errorf("autopilot: no families configured")
	}
	db, err := bench.DBOfFamily(opts.Families[0].Family)
	if err != nil {
		return nil, err
	}
	for _, fs := range opts.Families[1:] {
		d, err := bench.DBOfFamily(fs.Family)
		if err != nil {
			return nil, err
		}
		if d != db {
			return nil, fmt.Errorf("autopilot: families span databases %s and %s; one engine serves one database", db, d)
		}
	}
	lab := bench.NewLab(opts.Scale, opts.Seed)
	lab.WorkloadSize = opts.PoolSize
	lab.Parallelism = opts.Parallelism

	famOrder := make([]string, len(opts.Families))
	pools := make([]workload.Family, len(opts.Families))
	shares := make([]float64, len(opts.Families))
	for i, fs := range opts.Families {
		famOrder[i] = fs.Family
		pools[i] = lab.Workload(opts.System, fs.Family)
		shares[i] = fs.Weight
	}
	var drifted []float64
	driftAt := 0
	if opts.Drift != nil {
		drifted = make([]float64, len(famOrder))
		for _, fs := range opts.Drift.Shares {
			found := false
			for i, name := range famOrder {
				if name == fs.Family {
					drifted[i] = fs.Weight
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("autopilot: drift family %q is not in the base mixture", fs.Family)
			}
		}
		driftAt = opts.Drift.AtWindow
		if opts.Warmup {
			driftAt++ // the warmup window occupies stream position 0
		}
	}

	eng := lab.Engine(opts.System, db)
	loop, err := recommender.NewLoop(eng, opts.Recommender, lab.Budget(opts.System, db))
	if err != nil {
		return nil, err
	}
	loop.Threshold, loop.Timeout = opts.MixShiftThreshold, opts.Timeout

	stream, err := newStream(opts.Seed+1, pools, shares, drifted, driftAt)
	if err != nil {
		return nil, err
	}

	metrics := NewMetrics()
	a := &Autopilot{
		opts:     opts,
		eng:      eng,
		stream:   stream,
		runner:   core.Runner{Parallelism: opts.Parallelism, OnMeasure: metrics.ObserveQuery},
		estR:     core.Runner{Parallelism: opts.Parallelism},
		loop:     loop,
		metrics:  metrics,
		famOrder: famOrder,
		curName:  "P",
	}
	return a, nil
}

// Metrics exposes the live counters (for the daemon's HTTP endpoints).
func (a *Autopilot) Metrics() *Metrics { return a.metrics }

// Run drives the control loop: warmup tune (if configured), then one
// window per iteration until the bound or the context ends. It returns
// every window report plus the retune log.
//
// In overlapped mode a retune launched after window w runs concurrently
// with window w+1's traffic and is joined before window w+2, so a
// transition overlaps exactly one window of queries and every later
// window runs fully under the new configuration.
func (a *Autopilot) Run(ctx context.Context) (reports []WindowReport, retunes []recommender.RetuneRecord, err error) {
	reports = make([]WindowReport, 0, a.opts.Windows)
	retunes = make([]recommender.RetuneRecord, 0, a.opts.Windows)

	// join waits for a retune and logs its record; if the retune applied,
	// its configuration is now the current one.
	join := func(job *retuneJob) bool {
		<-job.done
		retunes = append(retunes, job.rec)
		if job.rec.Err != "" {
			return false
		}
		a.curName = job.rec.Name
		return true
	}

	streamPos := 0
	if a.opts.Warmup {
		qs, err := a.stream.Window(streamPos, a.opts.WindowSize)
		if err != nil {
			return nil, nil, err
		}
		streamPos++
		join(a.launch(-1, "warmup", sqlsOf(qs), countMix(qs, a.famOrder)))
	}

	var pending *retuneJob
	// The in-flight retune, if any, is joined before every return: a
	// retune goroutine may be mid-Transition, and exiting before it has
	// published or failed would drop its retune record on the floor (the
	// shutdown-ordering contract shared with the gateway).
	defer func() {
		if pending != nil {
			join(pending)
		}
	}()

	// firstFull tracks the window that will be the first served entirely
	// by the most recently applied configuration (-1 = none awaited).
	firstFull := -1
	lastPredicted := 0.0

	for w := 0; a.opts.Windows == 0 || w < a.opts.Windows; w++ {
		if err := ctx.Err(); err != nil {
			break
		}
		qs, err := a.stream.Window(streamPos, a.opts.WindowSize)
		if err != nil {
			return reports, retunes, err
		}
		streamPos++
		sqls := sqlsOf(qs)
		startCfg := a.curName

		ms, err := a.runner.RunWorkload(a.eng, sqls, a.opts.Timeout)
		if err != nil {
			return reports, retunes, fmt.Errorf("autopilot: window %d: %w", w, err)
		}
		est, err := a.estR.EstimateWorkload(a.eng, sqls)
		if err != nil {
			return reports, retunes, fmt.Errorf("autopilot: window %d estimates: %w", w, err)
		}

		cfgLabel := startCfg
		if pending != nil {
			// The overlapped retune ran concurrently with this window's
			// traffic; join it before observing.
			if join(pending) {
				cfgLabel = startCfg + "→" + pending.rec.Name
				firstFull, lastPredicted = w+1, pending.rec.PredictedMean
			}
			pending = nil
		}

		rep := a.observe(w, cfgLabel, qs, ms, est)
		if w == firstFull && rep.MeanSeconds > 0 && lastPredicted > 0 {
			rep.HypoRatio = lastPredicted / rep.MeanSeconds
			firstFull = -1
		}

		if !a.opts.Static {
			if reason := a.loop.Decide(familyMix(rep.Mix), !rep.Satisfied); reason != "" {
				rep.Trigger = reason
				job := a.launch(w, reason, sqls, rep.Mix)
				if a.opts.Sync {
					if join(job) {
						firstFull, lastPredicted = w+1, job.rec.PredictedMean
					}
				} else {
					pending = job
				}
			}
		}

		a.metrics.ObserveWindow(rep)
		reports = append(reports, rep)
	}

	return reports, retunes, nil
}

// retuneJob is one in-flight retune.
type retuneJob struct {
	done chan struct{}
	rec  recommender.RetuneRecord
}

// launch starts a retune for the window's queries and family mix. Call
// only from the loop goroutine, and only with no other job in flight.
// The retune runs off the loop goroutine in overlapped mode: the loop's
// search and prediction read through its what-if session (lock-free
// against the published snapshot) and Transition publishes the next
// snapshot atomically, so traffic and tuning interleave safely. The
// loop's next Decide runs only after the job is joined.
func (a *Autopilot) launch(window int, reason string, sqls []string, mix []FamilyCount) *retuneJob {
	a.epoch++
	job := &retuneJob{done: make(chan struct{})}
	a.metrics.RetunesInFlight.Add(1)
	go a.retune(job, window, fmt.Sprintf("R%d", a.epoch), reason, sqls, familyMix(mix))
	return job
}

// retune runs the loop's recommend and predict, applies the result with
// Transition and closes the job with its record.
func (a *Autopilot) retune(job *retuneJob, window int, name, reason string, sqls []string, mix map[string]int) {
	defer close(job.done)
	// conflint:ignore WallMS is wall-clock observability for the operator; it is excluded from all rendered reports
	start := time.Now()
	cfg, rec := a.loop.Retune(reason, mix, sqls)
	rec.Window, rec.Name = window, name
	if rec.Err == "" {
		cfg.Name = name
		if rep, err := a.eng.Transition(cfg); err != nil {
			rec.Err = err.Error()
		} else {
			rec.Built, rec.Kept, rec.Dropped = rep.Built, rep.Kept, rep.Dropped
			rec.BuildSeconds = rep.BuildSeconds
		}
	}
	// conflint:ignore WallMS is wall-clock observability for the operator; it is excluded from all rendered reports
	rec.WallMS = time.Since(start).Milliseconds()
	m := a.metrics
	m.RetunesInFlight.Add(-1)
	m.RetuneWallMS.Add(rec.WallMS)
	if rec.Err == "" {
		m.RetunesApplied.Add(1)
		m.StructuresBuilt.Add(int64(rec.Built))
		m.StructuresDropped.Add(int64(rec.Dropped))
	} else {
		m.RetuneErrors.Add(1)
	}
	job.rec = rec
}

// familyMix is a window's family mix as the loop's counts by key.
func familyMix(mix []FamilyCount) map[string]int {
	out := make(map[string]int, len(mix))
	for _, fc := range mix {
		out[fc.Family] = fc.Count
	}
	return out
}

func sqlsOf(qs []workload.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.SQL
	}
	return out
}

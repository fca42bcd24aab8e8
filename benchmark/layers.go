package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// tally counts the operations a traced run attempted and failed, over
// all of its sections.
type tally struct{ attempted, failed int }

// traceSizes says how large each section of a traced run is. Every
// traced run fills the whole per-layer table, so that a row never reads
// as a constant: the section a workload exercises runs at full size,
// the others as small fixed probes.
type traceSizes struct {
	requests *workload // whose gateway and schedule the request section uses
	cycles   int       // request-section cycles
	passes   int       // control-section passes over the five cases
	loaded   sizes     // loaded-section (serve-retune) phases
}

func traceSizesFor(w *workload, seconds int) traceSizes {
	scale := func(n int) int { return max(1, n*seconds/refSeconds) }
	ts := traceSizes{requests: mustWorkload("serve-2j"), cycles: scale(5), passes: 1, loaded: sizes{closed: 1, open: 1, warmup: warmupRequests}}
	switch w.name {
	case "serve-2j":
		ts.cycles = scale(20)
	case "serve-mix", "serve-shard":
		ts.requests, ts.cycles = w, 1
	case "serve-retune":
		// The request path is traced with the configuration held still
		// (serve-mix's gateway); the retunes are the loaded section.
		ts.requests, ts.cycles = mustWorkload("serve-mix"), 1
		ts.loaded.closed = float64(scale(2))
	case "advise":
		ts.passes = scale(2)
	}
	return ts
}

// runTraced is the -trace run: the workload's schedule issued serially
// with spans around every layer boundary the benchmark can reach, then
// the control path, reconfiguration under load, the shard layer and the
// primitive micro-benchmarks, each from its own set-up.
func runTraced(w *workload, seed int64, seconds int, outDir string) (metrics, tally, error) {
	out := metrics{}
	var tl tally
	tr := newTracer()
	ts := traceSizesFor(w, seconds)
	goroutines := runtime.NumGoroutine()

	if err := traceRequests(ts.requests, seed, ts.cycles, tr, out, &tl); err != nil {
		return nil, tl, fmt.Errorf("request section: %w", err)
	}
	if err := traceControl(seed, ts.passes, tr, out, &tl); err != nil {
		return nil, tl, fmt.Errorf("control section: %w", err)
	}
	if err := traceLoaded(seed, ts.loaded, tr, out, &tl); err != nil {
		return nil, tl, fmt.Errorf("loaded section: %w", err)
	}
	if err := traceShard(tr, out, &tl); err != nil {
		return nil, tl, fmt.Errorf("shard section: %w", err)
	}
	if err := runMicro(out); err != nil {
		return nil, tl, fmt.Errorf("micro section: %w", err)
	}

	// Connection and server goroutines end shortly after their lab is
	// closed; give them a moment before calling the difference a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.set("runtime.gc_cycles", float64(m.NumGC), "count")
	out.set("runtime.gc_pause_total_ms", float64(m.PauseTotalNs)/1e6, "ms")
	out.set("runtime.heap_peak_mb", float64(m.HeapSys)/(1<<20), "MiB")
	out.set("runtime.goroutines_delta", float64(runtime.NumGoroutine()-goroutines), "count")

	if err := checkComplete(out); err != nil {
		return nil, tl, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := tr.dump(path); err != nil {
		return nil, tl, err
	}
	fmt.Printf("trace: %d spans written to %s\n", tr.count(), path)
	return out, tl, nil
}

// traceRequests issues the schedule serially over HTTP twice — spans
// off, then on — and then replays every request through the public
// functions of the layers the gateway calls internally, one layer per
// pass, each replay span carrying the request's schedule position.
func traceRequests(w *workload, seed int64, cycles int, tr *tracer, out metrics, tl *tally) (err error) {
	l, err := setUp(w, tr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := l.close(); err == nil {
			err = cerr
		}
	}()
	orc, err := buildOracle(l.cfg, l.queries)
	if err != nil {
		return err
	}
	sched := makeSchedule(seed, l.cycle, cycles)
	n := len(sched)
	plain, traced := newSender(l, orc, nil), newSender(l, orc, tr)
	for i, qi := range warmupSchedule(seed, l.cycle, warmupRequests) {
		plain.send(-1-i, qi)
	}

	// alloc brackets one pass with ReadMemStats and returns what it
	// allocated and how long it took.
	pass := func(f func()) (bytes, mallocs uint64, wall time.Duration) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		f()
		wall = time.Since(start)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs, wall
	}

	reqBytes, _, wallOff := pass(func() {
		for i, qi := range sched {
			plain.send(i, qi)
		}
	})
	first := tr.count()
	_, _, wallOn := pass(func() {
		for i, qi := range sched {
			traced.send(i, qi)
		}
	})
	spans := tr.snapshot()[first:]
	self := selfTimes(spans)
	reqDur, reqSelf := make([]time.Duration, n), make([]time.Duration, n)
	httpSelf, gwDur := make([]time.Duration, n), make([]time.Duration, n)
	for _, s := range spans {
		switch s.Name {
		case "request":
			reqDur[s.Req], reqSelf[s.Req] = s.dur(), self[s.ID]
		case "http":
			httpSelf[s.Req] = self[s.ID]
		case "gateway":
			gwDur[s.Req] = s.dur()
		}
	}

	// Replay: one layer per pass, f(i) under a span that carries the
	// request's schedule position.
	replay := func(name string, f func(i int) error) ([]time.Duration, error) {
		ds := make([]time.Duration, n)
		for i := range sched {
			id := tr.begin(name, i, 0)
			err := f(i)
			ds[i] = tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s, position %d: %w", name, i, err)
			}
		}
		return ds, nil
	}
	eng, limit := l.backend.Engine, l.cfg.TimeoutSeconds
	stmts, qs, plans := make([]*sql.SelectStmt, n), make([]*sql.Query, n), make([]*plan.Plan, n)
	parse, err := replay("sql.parse", func(i int) (e error) {
		stmts[i], e = sql.ParseSelect(l.queries[sched[i]].sql)
		return
	})
	if err != nil {
		return err
	}
	analyze, err := replay("sql.analyze", func(i int) (e error) {
		qs[i], e = sql.Analyze(eng.Schema, stmts[i])
		return
	})
	if err != nil {
		return err
	}
	optimize, err := replay("optimizer.optimize", func(i int) (e error) {
		plans[i], e = optimizer.Optimize(eng.Physical(), qs[i], eng.Profile.Opts)
		return
	})
	if err != nil {
		return err
	}
	var execute, run, serveRun []time.Duration
	var rowsExamined, rowsOut int64
	execBytes, execMallocs, _ := pass(func() {
		execute, err = replay("exec.run", func(i int) error {
			ctx := &exec.Ctx{Model: eng.Model, LimitSeconds: limit}
			res, e := exec.Run(plans[i], ctx)
			if e != nil && !errors.Is(e, exec.ErrTimeout) {
				return e
			}
			rowsExamined += ctx.Meter.Rows
			if res != nil {
				rowsOut += int64(len(res.Rows))
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	var simSeconds float64
	wrong := 0
	runBytes, _, _ := pass(func() {
		run, err = replay("engine.run", func(i int) error {
			res, m, e := eng.RunAnalyzed(qs[i], limit)
			simSeconds += m.Seconds
			if _, full := hashResult(res, 0); e == nil && full != orc.answers[sched[i]].full {
				wrong++
			}
			return e
		})
	})
	if err != nil {
		return err
	}
	serveRun = run
	if cl := l.backend.Cluster; cl != nil {
		runBytes, _, _ = pass(func() {
			serveRun, err = replay("shard.run", func(i int) error {
				_, _, e := cl.RunAnalyzed(qs[i], limit)
				return e
			})
		})
		if err != nil {
			return err
		}
	}

	gwSelf, engSelf := make([]time.Duration, n), make([]time.Duration, n)
	sqlBoth := make([]time.Duration, n)
	for i := range sched {
		gwSelf[i] = gwDur[i] - parse[i] - analyze[i] - serveRun[i]
		engSelf[i] = run[i] - optimize[i] - execute[i]
		sqlBoth[i] = parse[i] + analyze[i]
	}
	total := sum(usOf(reqDur))
	share := func(ds []time.Duration) float64 { return sum(usOf(ds)) / total }

	out.set("trace.overhead_share", (wallOn-wallOff).Seconds()/wallOff.Seconds(), "ratio")
	out.set("loadgen.self_us_per_op", median(usOf(reqSelf)), "us")
	out.set("loadgen.fail_share", float64(plain.failures()+traced.failures()+int64(wrong))/float64(3*n), "ratio")
	out.set("http.transport.us_per_op", median(usOf(httpSelf)), "us")
	out.set("http.share", share(httpSelf), "ratio")
	out.set("gateway.serve.us_per_op", median(usOf(gwDur)), "us")
	out.set("gateway.self.us_per_op", median(usOf(gwSelf)), "us")
	out.set("gateway.share", share(gwSelf), "ratio")
	out.set("gateway.alloc_kb_per_op", (float64(reqBytes)-float64(runBytes))/1024/float64(n), "KiB")
	out.set("gateway.refused.count", float64(l.gw.Stats().Rejected), "count")
	out.set("sql.parse.us_per_op", median(usOf(parse)), "us")
	out.set("sql.analyze.us_per_op", median(usOf(analyze)), "us")
	out.set("sql.share", share(sqlBoth), "ratio")
	out.set("optimizer.optimize.us_per_op", median(usOf(optimize)), "us")
	out.set("optimizer.share", share(optimize), "ratio")
	out.set("exec.run.ms_per_op", median(msOf(execute)), "ms")
	p95, _ := percentile(msOf(execute), 0.95)
	out.set("exec.run.p95_ms", p95, "ms")
	out.set("exec.share", share(execute), "ratio")
	out.set("exec.alloc_kb_per_op", float64(execBytes)/1024/float64(n), "KiB")
	out.set("exec.allocs_per_op", float64(execMallocs)/float64(n), "count")
	out.set("exec.rows_examined_per_row_out", float64(rowsExamined)/float64(max(rowsOut, 1)), "ratio")
	out.set("engine.run.ms_per_op", median(msOf(run)), "ms")
	out.set("engine.self.us_per_op", median(usOf(engSelf)), "us")
	out.set("engine.sim_s_per_op", simSeconds/float64(n), "simsec")

	tl.attempted += warmupRequests + 3*n
	tl.failed += int(plain.failures()+traced.failures()) + wrong
	return nil
}

// traceControl walks the advise schedule with a span per step.
func traceControl(seed int64, passes int, tr *tracer, out metrics, tl *tally) error {
	run, err := runAdvise(seed, sizes{passes: passes, setUps: 1}, tr)
	if err != nil {
		return err
	}
	var cold, warm, toR, mb []float64
	var calls, hits int64
	var searching time.Duration
	for _, cy := range run.cycles {
		cold, warm = append(cold, ms(cy.cold)), append(warm, ms(cy.warm))
		toR = append(toR, ms(cy.toR))
		mb = append(mb, cy.recommendedKB/1024)
		calls, hits = calls+cy.calls, hits+cy.hits
		searching += cy.cold + cy.warm
	}
	n := float64(len(run.cycles))
	out.set("recommender.cold.ms_per_op", median(cold), "ms")
	out.set("recommender.warm.ms_per_op", median(warm), "ms")
	out.set("recommender.estimates_per_op", float64(calls)/n, "count")
	out.set("recommender.alloc_mb_per_op", sum(mb)/n, "MiB")
	out.set("engine.transition.idle_ms", median(toR), "ms")
	out.set("engine.whatif.hit_rate", float64(hits)/float64(calls), "ratio")
	out.set("engine.whatif.estimates_per_s", float64(calls)/searching.Seconds(), "1/s")

	bad, err := checkDigests("advise", run.digests)
	if err != nil {
		return err
	}
	for _, b := range bad {
		fmt.Println("MISMATCH:", b)
	}
	tl.attempted += len(run.cycles)
	tl.failed += run.failed + len(bad)
	return nil
}

// traceLoaded runs serve-retune with the retuner's spans recorded:
// reconfiguration while requests are in flight.
func traceLoaded(seed int64, sz sizes, tr *tracer, out metrics, tl *tally) error {
	w := mustWorkload("serve-retune")
	l, err := setUp(w, nil)
	if err != nil {
		return err
	}
	sz.retuneEvery = w.retuneEvery
	run, err := l.serve(seed, sz, tr)
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rt := run.retunes
	out.set("engine.transition.loaded_ms", median(rt.transitionMS()), "ms")
	out.set("engine.transition.count", float64(len(rt.spans)), "count")
	out.set("recommender.loaded_ms", median(msOf(rt.recommends)), "ms")

	// A request's interval runs from when it was issued (closed) or due
	// (open) to its reply; it overlaps a Transition if the two intersect.
	var hit, clear []float64
	for _, p := range []phase{run.closed, run.open} {
		for i, done := range p.done {
			from := done.Add(-p.lat[i])
			overlaps := false
			for _, s := range rt.spans {
				if from.Before(s[1]) && s[0].Before(done) {
					overlaps = true
					break
				}
			}
			if overlaps {
				hit = append(hit, ms(p.lat[i]))
			} else {
				clear = append(clear, ms(p.lat[i]))
			}
		}
	}
	hit95, _ := percentile(hit, 0.95)
	clear95, _ := percentile(clear, 0.95)
	out.set("engine.stall.overlap_p95_ms", hit95-clear95, "ms")
	late95, _ := percentile(msOf(run.open.late), 0.95)
	out.set("loadgen.late_p95_ms", late95, "ms")
	open95, _ := percentile(msOf(run.open.lat), 0.95)
	out.set("loadgen.open_p50_ms", median(msOf(run.open.lat)), "ms")
	out.set("loadgen.open_p95_ms", open95, "ms")

	tl.attempted += run.attempts
	tl.failed += run.failed
	return nil
}

// traceShard runs every serve-shard query on the cluster and on the
// engine beneath it, then reshards 2→4→2 with nothing in flight.
func traceShard(tr *tracer, out metrics, tl *tally) error {
	w := mustWorkload("serve-shard")
	l, err := setUp(w, nil)
	if err != nil {
		return err
	}
	err = func() error {
		eng, cl, limit := l.backend.Engine, l.backend.Cluster, l.cfg.TimeoutSeconds
		before := cl.Stats()
		var sharded, overhead []float64
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			for qi, q := range l.queries {
				aq, err := eng.AnalyzeSQL(q.sql)
				if err != nil {
					return err
				}
				id := tr.begin("shard.run", qi, 0)
				cres, _, err := cl.RunAnalyzed(aq, limit)
				cd := tr.end(id)
				if err != nil {
					return err
				}
				id = tr.begin("engine.run", qi, 0)
				eres, _, err := eng.RunAnalyzed(aq, limit)
				ed := tr.end(id)
				if err != nil {
					return err
				}
				sharded, overhead = append(sharded, ms(cd)), append(overhead, ms(cd-ed))
				_, ch := hashResult(cres, 0)
				_, eh := hashResult(eres, 0)
				tl.attempted++
				if ch != eh {
					tl.failed++
				}
			}
		}
		after := cl.Stats()
		out.set("shard.run.ms_per_op", median(sharded), "ms")
		out.set("shard.overhead.ms_per_op", median(overhead), "ms")
		out.set("shard.exchange_share", float64(after.Exchanges-before.Exchanges)/float64(after.Queries-before.Queries), "ratio")
		out.set("shard.fallbacks", float64(after.Fallbacks-before.Fallbacks), "count")
		out.set("shard.new.ms", ms(l.shardNew), "ms")

		id := tr.begin("shard.reshard", 0, 0)
		err := cl.Reshard(2 * w.shards)
		if err == nil {
			err = cl.Reshard(w.shards)
		}
		out.set("shard.reshard.ms", ms(tr.end(id)), "ms")
		return err
	}()
	if cerr := l.close(); err == nil {
		err = cerr
	}
	return err
}

// perLayerMetric is one per-layer metric of the traced run; the table
// is the list BENCHMARK.json repeats, and a traced run must set exactly
// these.
type perLayerMetric struct{ name, unit, better string }

var perLayerMetrics = []perLayerMetric{
	{"loadgen.late_p95_ms", "ms", "lower"},
	{"loadgen.self_us_per_op", "us", "lower"},
	{"loadgen.fail_share", "ratio", "lower"},
	{"loadgen.open_p50_ms", "ms", "lower"},
	{"loadgen.open_p95_ms", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"http.transport.us_per_op", "us", "lower"},
	{"http.share", "ratio", "lower"},
	{"gateway.serve.us_per_op", "us", "lower"},
	{"gateway.self.us_per_op", "us", "lower"},
	{"gateway.share", "ratio", "lower"},
	{"gateway.alloc_kb_per_op", "KiB", "lower"},
	{"gateway.refused.count", "count", "lower"},
	{"sql.parse.us_per_op", "us", "lower"},
	{"sql.analyze.us_per_op", "us", "lower"},
	{"sql.share", "ratio", "lower"},
	{"optimizer.optimize.us_per_op", "us", "lower"},
	{"optimizer.share", "ratio", "lower"},
	{"exec.run.ms_per_op", "ms", "lower"},
	{"exec.run.p95_ms", "ms", "lower"},
	{"exec.share", "ratio", "lower"},
	{"exec.alloc_kb_per_op", "KiB", "lower"},
	{"exec.allocs_per_op", "count", "lower"},
	{"exec.rows_examined_per_row_out", "ratio", "lower"},
	{"exec.merge_partials.us_per_op", "us", "lower"},
	{"engine.run.ms_per_op", "ms", "lower"},
	{"engine.self.us_per_op", "us", "lower"},
	{"engine.sim_s_per_op", "simsec", "lower"},
	{"engine.transition.idle_ms", "ms", "lower"},
	{"engine.transition.loaded_ms", "ms", "lower"},
	{"engine.transition.count", "count", "higher"},
	{"engine.stall.overlap_p95_ms", "ms", "lower"},
	{"engine.whatif.estimate_hit.us_per_op", "us", "lower"},
	{"engine.whatif.estimate_miss.us_per_op", "us", "lower"},
	{"engine.whatif.hit_rate", "ratio", "higher"},
	{"engine.whatif.estimates_per_s", "1/s", "higher"},
	{"recommender.cold.ms_per_op", "ms", "lower"},
	{"recommender.warm.ms_per_op", "ms", "lower"},
	{"recommender.estimates_per_op", "count", "lower"},
	{"recommender.alloc_mb_per_op", "MiB", "lower"},
	{"recommender.loaded_ms", "ms", "lower"},
	{"shard.run.ms_per_op", "ms", "lower"},
	{"shard.overhead.ms_per_op", "ms", "lower"},
	{"shard.exchange_share", "ratio", "lower"},
	{"shard.fallbacks", "count", "lower"},
	{"shard.new.ms", "ms", "lower"},
	{"shard.reshard.ms", "ms", "lower"},
	{"btree.insert.ns_per_op", "ns", "lower"},
	{"btree.seek.ns_per_op", "ns", "lower"},
	{"val.row_key.ns_per_op", "ns", "lower"},
	{"val.row_key.allocs_per_op", "count", "lower"},
	{"storage.scan.ns_per_row", "ns", "lower"},
	{"stats.collect.ms", "ms", "lower"},
	{"datagen.nref.ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.heap_peak_mb", "MiB", "lower"},
	{"runtime.goroutines_delta", "count", "lower"},
}

// checkComplete reports a traced run that set a metric the table does
// not list, left one out, or used another unit.
func checkComplete(out metrics) error {
	for _, p := range perLayerMetrics {
		m, ok := out[p.name]
		if !ok {
			return fmt.Errorf("traced run did not set %s", p.name)
		}
		if m.Unit != p.unit {
			return fmt.Errorf("%s has unit %q, the table says %q", p.name, m.Unit, p.unit)
		}
	}
	if len(out) != len(perLayerMetrics) {
		return fmt.Errorf("traced run set %d metrics, the table lists %d", len(out), len(perLayerMetrics))
	}
	return nil
}

package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/recommender"
)

// adviseCase is one recommender search of cmd/whatifbench: a system
// profile on a family's pool.
type adviseCase struct {
	sys, family string

	eng    *engine.Engine
	pool   []string
	budget int64
	p      conf.Configuration
}

func (c *adviseCase) name() string { return c.sys + "/" + c.family }

var adviseCases = [][2]string{
	{"A", "NREF2J"}, {"B", "NREF2J"}, {"B", "NREF3J"}, {"C", "SkTH3J"}, {"C", "UnTH3J"},
}

func recommenderConfig(sys string) recommender.Config {
	switch sys {
	case "A":
		return recommender.SystemA()
	case "C":
		return recommender.SystemC()
	}
	return recommender.SystemB()
}

// setUpAdvise loads the engines (NREF under A and B, both TPC-H
// databases under C), samples the pools of advisePool queries and
// estimates the budgets: everything before the first recommender call.
func setUpAdvise() ([]*adviseCase, error) {
	lab := bench.NewLab(dataScale, dataSeed)
	lab.WorkloadSize = advisePool
	var cases []*adviseCase
	for _, sf := range adviseCases {
		db, err := bench.DBOfFamily(sf[1])
		if err != nil {
			return nil, err
		}
		c := &adviseCase{sys: sf[0], family: sf[1]}
		c.pool = lab.Workload(c.sys, c.family).SQLs()
		c.eng = lab.Engine(c.sys, db)
		c.budget = lab.Budget(c.sys, db)
		c.p = engine.PConfiguration(c.eng)
		cases = append(cases, c)
	}
	return cases, nil
}

// cycle is one advise op's timings and counts.
type cycle struct {
	cold, warm    time.Duration
	toR, toP      time.Duration
	total         time.Duration
	calls, hits   int64   // what-if estimates and cache hits, cold and warm together
	recommendedKB float64 // allocated by the two Recommend calls
	digest        string
}

// run performs one op: fresh what-if session, Recommend cold, Recommend
// warm on the same session, Transition(R), Transition(P). With a tracer
// it records a span per step under req; measureAlloc brackets the two
// searches with ReadMemStats (traced runs only: it stops the world).
func (c *adviseCase) run(tr *tracer, req int, measureAlloc bool) (cycle, error) {
	var out cycle
	step := func(name string, parent int, f func() error) (time.Duration, error) {
		id := 0
		if tr != nil {
			id = tr.begin(name, req, parent)
		}
		start := time.Now()
		err := f()
		d := time.Since(start)
		if tr != nil {
			tr.end(id)
		}
		return d, err
	}
	root := 0
	if tr != nil {
		root = tr.begin("advise.cycle", req, 0)
		defer tr.end(root)
	}
	var m0, m1 runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&m0)
	}
	begin := time.Now()
	calls0, hits0 := engine.WhatIfCounters()
	w := c.eng.NewWhatIf()
	rec := func() (conf.Configuration, error) {
		return recommender.New(c.eng, recommenderConfig(c.sys)).Parallel(1).UseSession(w).Recommend(c.pool, c.budget)
	}
	var r, r2 conf.Configuration
	var err error
	if out.cold, err = step("recommender.cold", root, func() (e error) { r, e = rec(); return }); err != nil {
		return out, fmt.Errorf("%s: cold recommend: %w", c.name(), err)
	}
	if out.warm, err = step("recommender.warm", root, func() (e error) { r2, e = rec(); return }); err != nil {
		return out, fmt.Errorf("%s: warm recommend: %w", c.name(), err)
	}
	calls1, hits1 := engine.WhatIfCounters()
	if measureAlloc {
		runtime.ReadMemStats(&m1)
		out.recommendedKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	}
	if out.toR, err = step("engine.transition", root, func() error { _, e := c.eng.Transition(r); return e }); err != nil {
		return out, fmt.Errorf("%s: transition to R: %w", c.name(), err)
	}
	if out.toP, err = step("engine.transition.back", root, func() error { _, e := c.eng.Transition(c.p); return e }); err != nil {
		return out, fmt.Errorf("%s: transition to P: %w", c.name(), err)
	}
	out.total = time.Since(begin)
	out.calls, out.hits = calls1-calls0, hits1-hits0
	out.digest = configDigest(r)
	if !reflect.DeepEqual(r, r2) {
		return out, fmt.Errorf("%s: warm recommendation differs from cold", c.name())
	}
	return out, nil
}

// adviseSchedule orders the cases for each pass; -seed shuffles the
// order within a pass, never which cases run.
func adviseSchedule(seed int64, nCases, passes int) []int {
	idx := make([]int, nCases)
	for i := range idx {
		idx[i] = i
	}
	return makeSchedule(seed, idx, passes)
}

// adviseRun is what one run of the advise workload measured.
type adviseRun struct {
	setupS  float64
	wall    time.Duration
	cycles  []cycle
	allocKB float64 // per op
	digests map[string]string
	failed  int
}

// runAdvise times the set-up (sz.setUps of them), then walks the
// schedule with one caller.
// An op whose recommendation disagrees with another op of the same case
// is a failed op.
func runAdvise(seed int64, sz sizes, tr *tracer) (*adviseRun, error) {
	var cases []*adviseCase
	var secs []float64
	for i := 0; i < sz.setUps; i++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		var err error
		if cases, err = setUpAdvise(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	run := &adviseRun{setupS: steadySetUp(secs), digests: make(map[string]string)}
	sched := adviseSchedule(seed, len(cases), sz.passes)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for pos, ci := range sched {
		cy, err := cases[ci].run(tr, pos, tr != nil)
		if err != nil {
			return nil, err
		}
		name := cases[ci].name()
		if prev, seen := run.digests[name]; seen && prev != cy.digest {
			run.failed++
		} else {
			run.digests[name] = cy.digest
		}
		run.cycles = append(run.cycles, cy)
	}
	run.wall = time.Since(begin)
	runtime.ReadMemStats(&m1)
	run.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(sched))
	return run, nil
}

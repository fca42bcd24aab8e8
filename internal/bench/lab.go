// Package bench drives the paper's experiments: it assembles engines,
// databases, workloads, configurations and recommendations, caches
// intermediate results, and regenerates every table and figure of the
// evaluation (see DESIGN.md's per-experiment index).
package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/recommender"
	"repro/internal/workload"
)

// Timeout is the per-query simulated timeout (30 minutes, §4.1).
const Timeout = core.DefaultTimeout

// Lab is the experimental environment. All state is memoized: engines are
// loaded once per (system, database), workloads sampled once per family,
// recommendations computed once, and workload runs cached per
// configuration.
//
// A Lab is safe for concurrent use. Each (system, database) cell has its
// own mutex so that the engine's configuration cannot change underneath a
// running experiment; independent cells proceed concurrently, and the
// queries within one workload run fan out over the lab's worker pool.
// Lock ordering: a cell lock is always acquired before l.mu, and l.mu is
// never held across engine work (data generation, config builds, query
// runs).
type Lab struct {
	// Scale is the data scale factor relative to the paper's databases.
	Scale float64
	// WorkloadSize is the per-family sample size (the paper uses 100).
	WorkloadSize int
	Seed         int64

	// Parallelism bounds the per-workload query fan-out: 0 means
	// GOMAXPROCS, 1 runs queries sequentially. Results are identical
	// either way (the simulated clock is per-query). Recommendation
	// searches fan out with the same bound.
	Parallelism int

	// DisableWhatIfCache turns off the what-if estimate cache on every
	// engine the lab loads (the tests' reference path). Set it before the
	// first workload runs.
	DisableWhatIfCache bool

	mu        sync.Mutex
	engMu     map[string]*sync.Mutex        // conflint:guardedby mu (per (system, database) cell)
	engines   map[string]*engine.Engine     // conflint:guardedby mu
	workloads map[string]workload.Family    // conflint:guardedby mu
	recs      map[string]recResult          // conflint:guardedby mu
	runs      map[string][]core.Measure     // conflint:guardedby mu
	builds    map[string]engine.BuildReport // conflint:guardedby mu
	current   map[string]string             // conflint:guardedby mu (engine key -> applied config name)
}

type recResult struct {
	cfg conf.Configuration
	err error
}

// NewLab creates a lab at the given scale (e.g. 0.001 for 1/1000-scale
// databases billed at full scale by the simulated clock).
func NewLab(scale float64, seed int64) *Lab {
	return &Lab{
		Scale:        scale,
		WorkloadSize: 100,
		Seed:         seed,
		engMu:        make(map[string]*sync.Mutex),
		engines:      make(map[string]*engine.Engine),
		workloads:    make(map[string]workload.Family),
		recs:         make(map[string]recResult),
		runs:         make(map[string][]core.Measure),
		builds:       make(map[string]engine.BuildReport),
		current:      make(map[string]string),
	}
}

// runner returns the worker pool used for workload fan-out.
func (l *Lab) runner() core.Runner { return core.Runner{Parallelism: l.Parallelism} }

// lockEngine returns the mutex serializing use of one (system, database)
// cell. Holding it guarantees the engine's configuration stays fixed for
// the duration of an experiment step.
func (l *Lab) lockEngine(sys, db string) *sync.Mutex {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := sys + ":" + db
	m, ok := l.engMu[key]
	if !ok {
		m = new(sync.Mutex)
		l.engMu[key] = m
	}
	return m
}

// Databases and systems.
const (
	DBNref = "NREF"
	DBSkTH = "SkTH"
	DBUnTH = "UnTH"
)

func profileOf(sys string) engine.Profile {
	switch sys {
	case "A":
		return engine.SystemA()
	case "B":
		return engine.SystemB()
	case "C":
		return engine.SystemC()
	}
	panic("bench: unknown system " + sys)
}

// Engine returns the loaded engine for a (system, database) pair, with
// statistics collected and the P configuration applied initially.
func (l *Lab) Engine(sys, db string) *engine.Engine {
	em := l.lockEngine(sys, db)
	em.Lock()
	defer em.Unlock()
	return l.engine(sys, db)
}

// engine loads (or returns) the cell's engine. The caller must hold the
// cell lock; l.mu is taken only around map access so other cells can
// load their databases concurrently.
func (l *Lab) engine(sys, db string) *engine.Engine {
	key := sys + ":" + db
	l.mu.Lock()
	e, ok := l.engines[key]
	l.mu.Unlock()
	if ok {
		return e
	}
	switch db {
	case DBNref:
		e = engine.New(catalog.NREF(), l.Scale, profileOf(sys))
		must(datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: l.Scale, Seed: l.Seed}))
	case DBSkTH:
		e = engine.New(catalog.TPCH(), l.Scale, profileOf(sys))
		must(datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: l.Scale, Seed: l.Seed, Skew: true, ZipfS: 1}))
	case DBUnTH:
		e = engine.New(catalog.TPCH(), l.Scale, profileOf(sys))
		must(datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: l.Scale, Seed: l.Seed}))
	default:
		panic("bench: unknown database " + db)
	}
	e.DisableWhatIfCache = l.DisableWhatIfCache
	e.CollectStats()
	rep, err := e.ApplyConfig(engine.PConfiguration(e))
	must(err)
	l.mu.Lock()
	l.current[key] = "P"
	l.builds[key+":P"] = rep
	l.engines[key] = e
	l.mu.Unlock()
	return e
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// DBOfFamily maps a family name to the database it runs on. Callers
// outside the lab (the autopilot daemon assembling a stream mixture)
// use it to check that all families of a mixture share one engine.
func DBOfFamily(family string) (string, error) {
	switch family {
	case "NREF2J", "NREF3J":
		return DBNref, nil
	case "SkTH3J", "SkTH3Js":
		return DBSkTH, nil
	case "UnTH3J":
		return DBUnTH, nil
	}
	return "", fmt.Errorf("bench: unknown family %q", family)
}

// dbOfFamily is DBOfFamily for internal callers with known-good names.
func dbOfFamily(family string) string {
	db, err := DBOfFamily(family)
	if err != nil {
		panic(err)
	}
	return db
}

// Workload returns the sampled 100-query workload for the family,
// stratified by optimizer estimates in the P configuration (the sampling
// that "preserves the distribution of elapsed times of the larger family",
// §4.1.1, using estimates as the stratifier).
func (l *Lab) Workload(sys, family string) workload.Family {
	db := dbOfFamily(family)
	key := db + ":" + family
	l.mu.Lock()
	f, ok := l.workloads[key]
	l.mu.Unlock()
	if ok {
		return f
	}

	em := l.lockEngine(sys, db)
	em.Lock()
	defer em.Unlock()
	l.mu.Lock()
	f, ok = l.workloads[key]
	l.mu.Unlock()
	if ok {
		return f
	}
	e := l.engine(sys, db)
	l.apply(sys, db, "P", conf.Configuration{})
	fam := generateFamily(family, e, defaultFamilyOptions())
	fam = fam.Sample(l.WorkloadSize, func(s string) float64 {
		m, err := e.Estimate(s)
		if err != nil {
			return 0
		}
		return m.Seconds
	}, l.Seed)
	l.mu.Lock()
	l.workloads[key] = fam
	l.mu.Unlock()
	return fam
}

// Budget returns the paper's storage budget: the estimated size difference
// between 1C and P (§3.2.3). The estimate derives only from base-table
// statistics, so it needs no cell lock.
func (l *Lab) Budget(sys, db string) int64 {
	e := l.Engine(sys, db)
	w := e.NewWhatIf()
	return w.EstimateSize(engine.OneColumnConfiguration(e))
}

// Recommendation returns (and caches) the system's recommended
// configuration for the family, or the recommender's error (System A on
// NREF3J capitulates; the paper reports no configuration for it).
func (l *Lab) Recommendation(sys, family string) (conf.Configuration, error) {
	key := sys + ":" + family
	l.mu.Lock()
	if r, ok := l.recs[key]; ok {
		l.mu.Unlock()
		return r.cfg, r.err
	}
	l.mu.Unlock()

	recCfg, err := recommender.System(sys)
	if err != nil {
		return conf.Configuration{}, err
	}
	db := dbOfFamily(family)
	fam := l.Workload(sys, family)
	e := l.Engine(sys, db)
	budget := l.Budget(sys, db)

	em := l.lockEngine(sys, db)
	em.Lock()
	defer em.Unlock()
	l.mu.Lock()
	if r, ok := l.recs[key]; ok {
		l.mu.Unlock()
		return r.cfg, r.err
	}
	l.mu.Unlock()
	l.apply(sys, db, "P", conf.Configuration{})
	cfg, err := recommender.New(e, recCfg).Parallel(l.Parallelism).Recommend(fam.SQLs(), budget)
	if err == nil {
		cfg.Name = fmt.Sprintf("%s %s R", sys, family)
	}
	l.mu.Lock()
	l.recs[key] = recResult{cfg, err}
	l.mu.Unlock()
	return cfg, err
}

// Config materializes one of the named configurations for an engine.
func (l *Lab) Config(sys, db, name string) (conf.Configuration, error) {
	e := l.Engine(sys, db)
	switch name {
	case "P":
		return engine.PConfiguration(e), nil
	case "1C":
		return engine.OneColumnConfiguration(e), nil
	}
	// "R:<family>"
	if fam, ok := strings.CutPrefix(name, "R:"); ok {
		return l.Recommendation(sys, fam)
	}
	return conf.Configuration{}, fmt.Errorf("bench: unknown configuration %q", name)
}

// apply switches the engine to the named configuration if needed,
// recording the build report the first time each configuration is built.
// The caller must hold the cell lock.
func (l *Lab) apply(sys, db, name string, cfg conf.Configuration) {
	key := sys + ":" + db
	e := l.engine(sys, db)
	bkey := key + ":" + name
	l.mu.Lock()
	cur := l.current[key]
	l.mu.Unlock()
	if cur == name {
		return
	}
	if name == "P" {
		cfg = engine.PConfiguration(e)
	} else if name == "1C" {
		cfg = engine.OneColumnConfiguration(e)
	}
	rep, err := e.ApplyConfig(cfg)
	must(err)
	l.mu.Lock()
	if _, ok := l.builds[bkey]; !ok {
		l.builds[bkey] = rep
	}
	l.current[key] = name
	l.mu.Unlock()
}

// Run executes the family workload under the named configuration,
// returning cached per-query measures A(q, C). Queries fan out over the
// lab's worker pool; the cell lock keeps the configuration fixed for the
// duration of the run.
func (l *Lab) Run(sys, family, configName string) ([]core.Measure, error) {
	db := dbOfFamily(family)
	key := strings.Join([]string{sys, family, configName}, ":")
	l.mu.Lock()
	ms, ok := l.runs[key]
	l.mu.Unlock()
	if ok {
		return ms, nil
	}

	cfg, err := l.Config(sys, db, configName)
	if err != nil {
		return nil, err
	}
	fam := l.Workload(sys, family)

	em := l.lockEngine(sys, db)
	em.Lock()
	defer em.Unlock()
	l.mu.Lock()
	ms, ok = l.runs[key]
	l.mu.Unlock()
	if ok {
		return ms, nil
	}
	l.apply(sys, db, configName, cfg)
	ms, err = l.runner().RunWorkload(l.engine(sys, db), fam.SQLs(), Timeout)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.runs[key] = ms
	l.mu.Unlock()
	return ms, nil
}

// Estimates returns the optimizer estimates E(q, C) for the family under
// the named configuration (the engine is switched to it first).
func (l *Lab) Estimates(sys, family, configName string) ([]core.Measure, error) {
	db := dbOfFamily(family)
	cfg, err := l.Config(sys, db, configName)
	if err != nil {
		return nil, err
	}
	fam := l.Workload(sys, family)
	em := l.lockEngine(sys, db)
	em.Lock()
	defer em.Unlock()
	l.apply(sys, db, configName, cfg)
	return l.runner().EstimateWorkload(l.engine(sys, db), fam.SQLs())
}

// Hypotheticals returns H(q, Ch, P): what-if estimates for the named
// configuration taken while the system sits in P.
func (l *Lab) Hypotheticals(sys, family, configName string) ([]core.Measure, error) {
	db := dbOfFamily(family)
	cfg, err := l.Config(sys, db, configName)
	if err != nil {
		return nil, err
	}
	fam := l.Workload(sys, family)
	em := l.lockEngine(sys, db)
	em.Lock()
	defer em.Unlock()
	l.apply(sys, db, "P", conf.Configuration{})
	return l.runner().WhatIfWorkload(l.engine(sys, db), fam.SQLs(), cfg)
}

// CFC builds the cumulative frequency curve for a cached or fresh run.
func (l *Lab) CFC(sys, family, configName string) (core.CFC, error) {
	ms, err := l.Run(sys, family, configName)
	if err != nil {
		return core.CFC{}, err
	}
	return core.NewCFC(ms, Timeout), nil
}

// BuildReport returns the recorded build report for a configuration,
// building it if necessary.
func (l *Lab) BuildReport(sys, db, name string) (engine.BuildReport, error) {
	cfg, err := l.Config(sys, db, name)
	if err != nil {
		return engine.BuildReport{}, err
	}
	em := l.lockEngine(sys, db)
	em.Lock()
	defer em.Unlock()
	bkey := sys + ":" + db + ":" + name
	l.mu.Lock()
	rep, ok := l.builds[bkey]
	l.mu.Unlock()
	if ok {
		return rep, nil
	}
	l.apply(sys, db, name, cfg)
	l.mu.Lock()
	rep = l.builds[bkey]
	l.mu.Unlock()
	return rep, nil
}

// defaultFamilyOptions returns the paper's enumeration restrictions.
func defaultFamilyOptions() workload.Options { return workload.DefaultOptions() }

// generateFamily enumerates the full (restricted) family for an engine.
func generateFamily(family string, e *engine.Engine, opts workload.Options) workload.Family {
	switch family {
	case "NREF2J":
		return workload.NREF2J(e.Schema, e, opts)
	case "NREF3J":
		return workload.NREF3J(e.Schema, e, opts)
	case "SkTH3J":
		return workload.SkTH3J(e.Schema, e, opts)
	case "SkTH3Js":
		return workload.SkTH3Js(e.Schema, e, opts)
	case "UnTH3J":
		return workload.UnTH3J(e.Schema, e, opts)
	}
	panic("bench: unknown family " + family)
}

// datagenNREFInto loads a fresh NREF instance with the lab's parameters.
func datagenNREFInto(e *engine.Engine, l *Lab) error {
	return datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: l.Scale, Seed: l.Seed})
}

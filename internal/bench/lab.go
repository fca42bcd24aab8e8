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
	"repro/internal/sql"
	"repro/internal/workload"
)

// Timeout is the per-query simulated timeout (30 minutes, §4.1).
const Timeout = core.DefaultTimeout

// Lab is the experimental environment. All state is memoized: engines are
// loaded once per (system, database), workloads sampled once per family,
// recommendations computed once, each named configuration built once, and
// workload runs cached per configuration.
//
// A Lab is safe for concurrent use, and it holds configurations, not a
// switch: each named configuration is built once, from scratch, on its
// own fork of the cell's loaded P engine, and kept. A built engine is
// never reconfigured, so experiments on one cell need no lock between
// them; independent cells load data concurrently, and the queries within
// one workload run fan out over the lab's worker pool.
type Lab struct {
	// Scale is the data scale factor relative to the paper's databases.
	Scale float64
	// WorkloadSize is the per-family sample size (the paper uses 100).
	WorkloadSize int
	Seed         int64

	// Parallelism bounds the per-workload query fan-out: 0 means
	// GOMAXPROCS, 1 runs queries sequentially. Results are identical
	// either way (the simulated clock is per-query). Recommendation
	// searches and what-if passes run sequentially, each on a session of
	// its own.
	Parallelism int

	// DisableWhatIfCache turns off the what-if estimate cache on every
	// engine the lab loads (the tests' reference path). Set it before the
	// first workload runs.
	DisableWhatIfCache bool

	configs   memo[built]              // (system, database, configuration name)
	workloads memo[workload.Family]    // (database, family)
	recs      memo[conf.Configuration] // (system, family)
	runs      memo[[]core.Measure]     // (system, family, configuration name)
}

// built is one named configuration: the engine serving it and the report
// of building it from scratch.
type built struct {
	e   *engine.Engine
	rep engine.BuildReport
}

// memo is a once-per-key cache: the first caller of a key computes its
// value, and concurrent callers of that key wait for it. Errors are
// cached with the value.
type memo[V any] struct {
	mu    sync.Mutex
	cells map[string]*memoCell[V] // conflint:guardedby mu
}

type memoCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (m *memo[V]) get(key string, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	c, ok := m.cells[key]
	if !ok {
		if m.cells == nil {
			m.cells = make(map[string]*memoCell[V])
		}
		c = new(memoCell[V])
		m.cells[key] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.v, c.err = compute() })
	return c.v, c.err
}

// NewLab creates a lab at the given scale (e.g. 0.001 for 1/1000-scale
// databases billed at full scale by the simulated clock).
func NewLab(scale float64, seed int64) *Lab {
	return &Lab{Scale: scale, WorkloadSize: 100, Seed: seed}
}

// runner returns the worker pool used for workload fan-out.
func (l *Lab) runner() core.Runner { return core.Runner{Parallelism: l.Parallelism} }

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

// Engine returns a fork of the (system, database) cell's loaded engine,
// with statistics collected and the P configuration applied. The caller
// owns the fork: reconfiguring it leaves every engine the lab reads as
// it was.
func (l *Lab) Engine(sys, db string) *engine.Engine { return l.pEngine(sys, db).Fork() }

// pEngine returns the cell's engine in P, shared with every experiment.
func (l *Lab) pEngine(sys, db string) *engine.Engine {
	b, err := l.configured(sys, db, "P")
	must(err)
	return b.e
}

// loadEngine generates the cell's database and collects its statistics.
func (l *Lab) loadEngine(sys, db string) *engine.Engine {
	var e *engine.Engine
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
// §4.1.1, using estimates as the stratifier). Each text of the family is
// analyzed and priced outside the engine's memo of analyzed queries: only
// the sample is asked about again.
func (l *Lab) Workload(sys, family string) workload.Family {
	db := dbOfFamily(family)
	fam, err := l.workloads.get(db+":"+family, func() (workload.Family, error) {
		e := l.pEngine(sys, db)
		fam := generateFamily(family, e, defaultFamilyOptions())
		return fam.Sample(l.WorkloadSize, func(s string) float64 {
			stmt, err := sql.ParseSelect(s)
			if err != nil {
				return 0
			}
			q, err := sql.Analyze(e.Schema, stmt)
			if err != nil {
				return 0
			}
			m, err := e.EstimateAnalyzed(q)
			if err != nil {
				return 0
			}
			return m.Seconds
		}, l.Seed), nil
	})
	must(err)
	return fam
}

// Budget returns the paper's storage budget: the estimated size difference
// between 1C and P (§3.2.3).
func (l *Lab) Budget(sys, db string) int64 {
	e := l.pEngine(sys, db)
	return e.NewWhatIf().EstimateSize(engine.OneColumnConfiguration(e))
}

// Recommendation returns (and caches) the system's recommended
// configuration for the family, or the recommender's error (System A on
// NREF3J capitulates; the paper reports no configuration for it).
func (l *Lab) Recommendation(sys, family string) (conf.Configuration, error) {
	return l.recs.get(sys+":"+family, func() (conf.Configuration, error) {
		recCfg, err := recommender.System(sys)
		if err != nil {
			return conf.Configuration{}, err
		}
		db := dbOfFamily(family)
		fam := l.Workload(sys, family)
		budget := l.Budget(sys, db)
		cfg, err := recommender.New(l.pEngine(sys, db), recCfg).Recommend(fam.SQLs(), budget)
		if err == nil {
			cfg.Name = fmt.Sprintf("%s %s R", sys, family)
		}
		return cfg, err
	})
}

// Config materializes one of the named configurations for an engine.
func (l *Lab) Config(sys, db, name string) (conf.Configuration, error) {
	e := l.pEngine(sys, db)
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

// configured returns the cell's engine under the named configuration,
// built once, from scratch: P on the freshly loaded engine, any other
// configuration on its own fork of P. The engine is shared: callers must
// not reconfigure it.
func (l *Lab) configured(sys, db, name string) (built, error) {
	return l.configs.get(sys+":"+db+":"+name, func() (built, error) {
		var e *engine.Engine
		var cfg conf.Configuration
		if name == "P" {
			e = l.loadEngine(sys, db)
			cfg = engine.PConfiguration(e)
		} else {
			var err error
			if cfg, err = l.Config(sys, db, name); err != nil {
				return built{}, err
			}
			e = l.pEngine(sys, db).Fork()
		}
		rep, err := e.ApplyConfig(cfg)
		must(err)
		return built{e, rep}, nil
	})
}

// Run executes the family workload under the named configuration,
// returning cached per-query measures A(q, C). Queries fan out over the
// lab's worker pool.
func (l *Lab) Run(sys, family, configName string) ([]core.Measure, error) {
	return l.runs.get(sys+":"+family+":"+configName, func() ([]core.Measure, error) {
		c, err := l.configured(sys, dbOfFamily(family), configName)
		if err != nil {
			return nil, err
		}
		return l.runner().RunWorkload(c.e, l.Workload(sys, family).SQLs(), Timeout)
	})
}

// Estimates returns the optimizer estimates E(q, C) for the family, taken
// in the named configuration.
func (l *Lab) Estimates(sys, family, configName string) ([]core.Measure, error) {
	c, err := l.configured(sys, dbOfFamily(family), configName)
	if err != nil {
		return nil, err
	}
	return l.runner().EstimateWorkload(c.e, l.Workload(sys, family).SQLs())
}

// Hypotheticals returns H(q, Ch, P): what-if estimates for the named
// configuration taken while the system sits in P.
func (l *Lab) Hypotheticals(sys, family, configName string) ([]core.Measure, error) {
	db := dbOfFamily(family)
	cfg, err := l.Config(sys, db, configName)
	if err != nil {
		return nil, err
	}
	return core.WhatIfWorkload(l.pEngine(sys, db).NewWhatIf(), l.Workload(sys, family).SQLs(), cfg)
}

// CFC builds the cumulative frequency curve for a cached or fresh run.
func (l *Lab) CFC(sys, family, configName string) (core.CFC, error) {
	ms, err := l.Run(sys, family, configName)
	if err != nil {
		return core.CFC{}, err
	}
	return core.NewCFC(ms, Timeout), nil
}

// BuildReport returns the report of building the named configuration from
// scratch, building it if necessary.
func (l *Lab) BuildReport(sys, db, name string) (engine.BuildReport, error) {
	c, err := l.configured(sys, db, name)
	return c.rep, err
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

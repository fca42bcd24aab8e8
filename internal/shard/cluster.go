package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// Cluster is a sharded engine: a coordinator engine holding the full
// data (and answering estimates, what-if sessions and recommender calls
// exactly as before) plus N partition engines, each holding one
// row-disjoint slice of every base table with its own partitioned
// B+-trees.
//
// Queries execute partition-parallel over a bounded core.Runner pool and
// merge deterministically; Reshard swaps in a new partition set live, and
// Transition a new configuration.
//
// The cluster reconfigures the way the engine does: the topology is an
// immutable generation behind an atomic pointer, queries load it once and
// take no lock, and the writers (Reshard, Transition) serialize on
// reshardMu, build the next generation beside the serving one and swap it
// in with one Store — or fail and publish nothing.
type Cluster struct {
	coord *engine.Engine

	// reshardMu serializes topology and configuration changes (Reshard,
	// Transition); the expensive partition builds run under it without
	// blocking queries.
	reshardMu sync.Mutex

	top  atomic.Pointer[topology]
	pool atomic.Int64

	statMu sync.Mutex
	st     Stats // conflint:guardedby statMu
}

// Stats is a snapshot of the cluster's execution counters.
type Stats struct {
	Queries   int64
	Fallbacks int64 // queries run coordinator-serial (plans reading materialized views)
	Exchanges int64 // queries that repartitioned at least one table via row exchange
	Timeouts  int64
	Reshards  int64
}

// New builds a cluster over an already-loaded coordinator engine. The
// coordinator must have its data loaded and stats collected; its current
// configuration is propagated (base-table structures only) to every
// partition.
func New(coord *engine.Engine, spec Spec, pool int) (*Cluster, error) {
	spec = spec.normalized()
	if err := spec.validate(coord.Schema); err != nil {
		return nil, err
	}
	if pool < 1 {
		pool = 1
	}
	c := &Cluster{coord: coord}
	c.pool.Store(int64(pool))
	top, err := c.buildTopology(spec)
	if err != nil {
		return nil, err
	}
	c.top.Store(top)
	return c, nil
}

// Shards returns the current shard count.
func (c *Cluster) Shards() int { return c.top.Load().spec.Shards }

// Pool returns the current worker-pool width for partition fan-out.
func (c *Cluster) Pool() int { return int(c.pool.Load()) }

// SetPool changes the worker-pool width (min 1). Unlike Reshard this is
// instant: the pool bounds fan-out concurrency only.
func (c *Cluster) SetPool(n int) {
	if n < 1 {
		n = 1
	}
	c.pool.Store(int64(n))
}

// Spec returns the current topology spec.
func (c *Cluster) Spec() Spec { return c.top.Load().spec }

// Stats returns a snapshot of the execution counters.
func (c *Cluster) Stats() Stats {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.st
}

// buildTopology constructs one immutable topology generation for a spec
// over the coordinator's current design.
func (c *Cluster) buildTopology(spec Spec) (*topology, error) {
	coord := c.coord.Physical()
	shards, err := c.buildShards(spec)
	if err != nil {
		return nil, err
	}
	ex := &exchangeCache{buckets: make(map[exKey][]*plan.TableInfo)}
	return &topology{spec: spec, coord: coord, shards: shards, ex: ex}, nil
}

// buildShards constructs the partition engines for a spec: partition
// every base table's rows (one serial coordinator scan per table), then
// load, collect statistics and build the coordinator's current
// base-table structures per partition in parallel over the pool — the
// transition-cost side of the scale-out: build work divides across
// partitions.
func (c *Cluster) buildShards(spec Spec) ([]*engine.Engine, error) {
	if spec.Shards <= 1 {
		return nil, nil // 1-shard topology serves straight from the coordinator
	}
	shards := make([]*engine.Engine, spec.Shards)
	for i := range shards {
		sh := engine.New(c.coord.Schema, c.coord.ScaleFactor, c.coord.Profile)
		sh.Model = c.coord.Model
		shards[i] = sh
	}
	type tablePart struct {
		name    string
		buckets [][]val.Row
	}
	tables := c.coord.Schema.Tables()
	parts := make([]tablePart, 0, len(tables))
	var rows []val.Row
	collect := func(_ storage.RowID, r val.Row) bool {
		rows = append(rows, r)
		return true
	}
	for _, t := range tables {
		h := c.coord.Heap(t.Name)
		if h == nil {
			return nil, fmt.Errorf("shard: coordinator has no heap for %s", t.Name)
		}
		rows = make([]val.Row, 0, h.NumRows())
		h.Scan(nil, collect)
		part := newPartitioner(spec, t, rows)
		buckets := make([][]val.Row, spec.Shards)
		for _, r := range rows {
			s := part.locate(r)
			buckets[s] = append(buckets[s], r)
		}
		parts = append(parts, tablePart{name: t.Name, buckets: buckets})
	}
	cfg := baseOnly(c.coord.Schema, c.coord.Current())
	runner := core.Runner{Parallelism: c.Pool()}
	if err := runner.Each(len(shards), func(i int) error {
		sh := shards[i]
		for _, tp := range parts {
			if err := sh.Load(tp.name, tp.buckets[i]); err != nil {
				return err
			}
		}
		sh.CollectStats()
		_, err := sh.ApplyConfig(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	return shards, nil
}

// baseOnly strips a configuration down to what a partition materializes:
// indexes over base tables. Views (and their indexes) stay
// coordinator-only — a materialized view is a global derived result, so
// any plan using one runs coordinator-serial.
func baseOnly(schema *catalog.Schema, cfg conf.Configuration) conf.Configuration {
	out := conf.Configuration{Name: cfg.Name}
	for _, d := range cfg.Indexes {
		if schema.Table(d.Table) != nil {
			out.Indexes = append(out.Indexes, d)
		}
	}
	return out
}

// Reshard rebuilds the cluster at a new shard count and swaps it in
// live. Running queries keep their snapshot of the old topology —
// including its exchange-bucket cache, so a query never joins old
// partitions against new-generation buckets; new queries see the new
// generation. The coordinator publishes a new snapshot so cached H
// estimates never survive the topology change.
func (c *Cluster) Reshard(n int) error {
	if n < 1 {
		return fmt.Errorf("shard: cannot reshard to %d shards", n)
	}
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	spec := c.Spec()
	if n == spec.Shards {
		return nil
	}
	spec.Shards = n
	top, err := c.buildTopology(spec)
	if err != nil {
		return err
	}
	c.top.Store(top)
	c.statMu.Lock()
	c.st.Reshards++
	c.statMu.Unlock()
	c.coord.NoteTopologyChange()
	return nil
}

// transitionPartition transitions one partition's fork. It is a variable
// so that tests can fail a partition's build.
var transitionPartition = (*engine.Engine).Transition

// Transition moves the cluster to the target configuration as Reshard
// moves it to a new shard count: it builds the next generation beside
// the serving one and swaps it in with one Store. Each partition is
// forked from its published snapshot and transitioned to the target's
// base-table structures over the pool; the coordinator transitions last,
// so a failed partition build leaves it and every partition on the
// previous configuration. The returned report is the coordinator's, with
// BuildSeconds restated as the sharded transition cost: views are global
// (coordinator-only), index builds run partition-parallel, so the
// cluster pays the view time plus the slowest partition's build.
func (c *Cluster) Transition(target conf.Configuration) (engine.BuildReport, error) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	cur, pool := c.top.Load(), c.Pool()
	next := &topology{spec: cur.spec, shards: make([]*engine.Engine, len(cur.shards)), ex: cur.ex}
	cfg := baseOnly(c.coord.Schema, target)
	reps := make([]engine.BuildReport, len(cur.shards))
	runner := core.Runner{Parallelism: pool}
	if err := runner.Each(len(cur.shards), func(i int) (err error) {
		next.shards[i] = cur.shards[i].Fork()
		reps[i], err = transitionPartition(next.shards[i], cfg)
		return err
	}); err != nil {
		return engine.BuildReport{}, err
	}
	rep, err := c.coord.Transition(target)
	if err != nil {
		return rep, err
	}
	next.coord = c.coord.Physical()
	c.top.Store(next)
	if len(reps) > 0 {
		var slowest float64
		for _, r := range reps {
			slowest = max(slowest, r.BuildSeconds)
		}
		rep.BuildSeconds = rep.ViewSeconds + slowest
	}
	return rep, nil
}

// Run parses, analyzes and executes a query partition-parallel.
func (c *Cluster) Run(sqlText string, limitSeconds float64) (*exec.Result, engine.Measure, error) {
	q, err := c.coord.AnalyzeSQL(sqlText)
	if err != nil {
		return nil, engine.Measure{}, err
	}
	return c.RunAnalyzed(q, limitSeconds)
}

// RunAnalyzed executes an already-analyzed query across the partitions
// and merges the results deterministically. The measure's Seconds is the
// sharded simulated cost: IN-set computation (coordinator, once) + the
// slowest partition (including its deterministic share of any row
// exchange) + the merge. Placement comes from planPlacements — stored
// partitions where the join graph aligns with the partition keys, row
// exchange where it does not, broadcast elsewhere — so every join shape
// runs partition-parallel. Only plans that read materialized views fall
// back to coordinator-serial execution — identically at every shard
// count, so results stay byte-identical across topologies.
func (c *Cluster) RunAnalyzed(q *sql.Query, limitSeconds float64) (*exec.Result, engine.Measure, error) {
	top, pool := c.top.Load(), c.Pool()
	if len(top.shards) == 0 {
		res, m, err := c.coord.RunAnalyzed(q, limitSeconds)
		c.note(m, false, false)
		return res, m, err
	}
	nShards := top.spec.Shards

	opts := c.coord.Profile.Opts
	coordPhys := top.coord
	coordPlan, err := optimizer.Optimize(coordPhys, q, opts)
	if err != nil {
		return nil, engine.Measure{}, err
	}
	if planUsesView(coordPlan.Root) {
		res, m, err := c.coord.RunAnalyzed(q, limitSeconds)
		c.note(m, true, false)
		return res, m, err
	}
	placements, exchanged := planPlacements(q, coordPhys, top.spec)

	sqlText := q.SQL()

	// Phase 1 (serial, coordinator): IN-subquery sets over the full
	// tables, so HAVING COUNT(*) predicates see global counts.
	insetCtx := &exec.Ctx{Model: c.coord.Model, LimitSeconds: limitSeconds}
	preset, err := exec.ComputeInSets(coordPlan, insetCtx)
	if err != nil {
		if err == exec.ErrTimeout {
			m := engine.Measure{SQL: sqlText, Seconds: limitSeconds, TimedOut: true, Meter: insetCtx.Meter}
			c.note(m, false, false)
			return nil, m, nil
		}
		return nil, engine.Measure{}, err
	}

	// Phase 2 (parallel): each partition plans against a hybrid physical
	// — native ordinals bound to the partition's tables and indexes,
	// exchanged ordinals to repartitioned buckets, the rest reading the
	// coordinator — and produces a mergeable partial. Exchange cost is
	// billed into the shard's meter up front as a fixed function of
	// coordinator statistics, so simulated seconds stay pool-invariant.
	// Indexed fan-out; errors resolve to the lowest index.
	shardOpts := opts
	shardOpts.NoViews = true
	partials := make([]*exec.Partial, len(top.shards))
	meters := make([]exec.Ctx, len(top.shards))
	runner := core.Runner{Parallelism: pool}
	err = runner.Each(len(top.shards), func(i int) error {
		hybrid, herr := top.shardPhysical(q, placements, i)
		if herr != nil {
			return herr
		}
		p, perr := optimizer.Optimize(hybrid, q, shardOpts)
		if perr != nil {
			return perr
		}
		ctx := &exec.Ctx{Model: c.coord.Model, LimitSeconds: limitSeconds, Preset: preset}
		for _, k := range exchanged {
			billExchange(&ctx.Meter, coordPhys.Table(k.table), nShards)
		}
		part, rerr := exec.RunPartial(p, ctx)
		meters[i] = *ctx
		if rerr != nil {
			return rerr
		}
		partials[i] = part
		return nil
	})
	if err != nil {
		if err == exec.ErrTimeout {
			m := timeoutMeasure(sqlText, limitSeconds, insetCtx, meters)
			c.note(m, false, false)
			return nil, m, nil
		}
		return nil, engine.Measure{}, err
	}

	// Phase 3 (serial): ordered reduction, billed to its own meter.
	mergeCtx := &exec.Ctx{Model: c.coord.Model, LimitSeconds: limitSeconds}
	res, err := exec.MergePartials(coordPlan, partials, mergeCtx)
	if err != nil {
		if err == exec.ErrTimeout {
			m := timeoutMeasure(sqlText, limitSeconds, insetCtx, meters)
			c.note(m, false, false)
			return nil, m, nil
		}
		return nil, engine.Measure{}, err
	}

	var slowest float64
	total := insetCtx.Meter
	for i := range meters {
		if s := meters[i].Seconds(); s > slowest {
			slowest = s
		}
		total.Add(meters[i].Meter)
	}
	total.Add(mergeCtx.Meter)
	m := engine.Measure{SQL: sqlText, Seconds: insetCtx.Seconds() + mergeCtx.Seconds() + slowest, Meter: total}
	if limitSeconds > 0 && m.Seconds > limitSeconds {
		m.TimedOut = true
		m.Seconds = limitSeconds
	}
	c.note(m, false, len(exchanged) > 0)
	return res, m, nil
}

// note folds one query into the counters.
func (c *Cluster) note(m engine.Measure, fallback, exchanged bool) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	c.st.Queries++
	if fallback {
		c.st.Fallbacks++
	}
	if exchanged {
		c.st.Exchanges++
	}
	if m.TimedOut {
		c.st.Timeouts++
	}
}

// timeoutMeasure assembles the measure for a hard partition/merge
// timeout: no result, billed at the limit, meters summed for
// observability.
func timeoutMeasure(sqlText string, limit float64, insetCtx *exec.Ctx, meters []exec.Ctx) engine.Measure {
	total := insetCtx.Meter
	for i := range meters {
		total.Add(meters[i].Meter)
	}
	return engine.Measure{SQL: sqlText, Seconds: limit, TimedOut: true, Meter: total}
}

// PartitionPhysical returns partition i's physical description — its
// heap slice, partition statistics and partitioned indexes. A 1-shard
// topology exposes the coordinator as partition 0. The what-if layer
// costs against these to see partition cardinalities; recommendations
// themselves stay topology-invariant (they are computed on the
// coordinator's full data).
func (c *Cluster) PartitionPhysical(i int) (*plan.Physical, error) {
	top := c.top.Load()
	if len(top.shards) == 0 {
		if i == 0 {
			return top.coord, nil
		}
		return nil, fmt.Errorf("shard: no partition %d in a 1-shard topology", i)
	}
	if i < 0 || i >= len(top.shards) {
		return nil, fmt.Errorf("shard: no partition %d in a %d-shard topology", i, len(top.shards))
	}
	return top.shards[i].Physical(), nil
}

// planUsesView reports whether any operator in the tree reads a
// materialized view.
func planUsesView(n plan.Node) bool {
	switch n := n.(type) {
	case *plan.ViewScan:
		return true
	case *plan.HashJoin:
		return planUsesView(n.Build) || planUsesView(n.Probe)
	case *plan.IndexJoin:
		return planUsesView(n.Outer)
	case *plan.HashAgg:
		return planUsesView(n.Input)
	case *plan.Project:
		return planUsesView(n.Input)
	}
	return false
}

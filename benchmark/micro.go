package main

import (
	"flag"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/val"
)

// microLab holds the inputs of the primitive micro-benchmarks: layers a
// replayed request cannot reach one call at a time. Everything is built
// from the same NREF data the workloads serve.
type microLab struct {
	eng  *engine.Engine
	heap *storage.Heap // taxonomy
	rows []val.Row     // its rows
	keys []val.Row     // their nref_id projections
	tree *btree.Tree   // a non-unique index on nref_id

	mergePlan  *plan.Plan
	mergeParts []*exec.Partial

	whatif *engine.WhatIf
	query  *sql.Query
	hit    conf.Configuration
	misses []conf.Configuration // pairwise distinct on the query's tables
}

// mergeQuery aggregates with COUNT(DISTINCT), the partial state that is
// dearest to merge.
const mergeQuery = `SELECT lineage, COUNT(DISTINCT nref_id) FROM taxonomy GROUP BY lineage`

func newMicroLab() (*microLab, error) {
	m := &microLab{eng: bench.NewLab(dataScale, dataSeed).Engine("B", bench.DBNref)}
	m.heap = m.eng.Heap("taxonomy")
	col := m.heap.Table.ColumnIndex("nref_id")
	m.tree = btree.New(false)
	var err error
	m.heap.Scan(nil, func(id storage.RowID, r val.Row) bool {
		m.rows = append(m.rows, r)
		m.keys = append(m.keys, val.Row{r[col]})
		err = m.tree.Insert(val.Row{r[col]}, int64(id))
		return err == nil
	})
	if err != nil {
		return nil, err
	}

	cl, err := shard.New(m.eng, shard.Spec{Shards: 2}, 2)
	if err != nil {
		return nil, err
	}
	q, err := m.eng.AnalyzeSQL(mergeQuery)
	if err != nil {
		return nil, err
	}
	opts := m.eng.Profile.Opts
	if m.mergePlan, err = optimizer.Optimize(m.eng.Physical(), q, opts); err != nil {
		return nil, err
	}
	opts.NoViews = true
	for i := 0; i < cl.Shards(); i++ {
		phys, err := cl.PartitionPhysical(i)
		if err != nil {
			return nil, err
		}
		p, err := optimizer.Optimize(phys, q, opts)
		if err != nil {
			return nil, err
		}
		part, err := exec.RunPartial(p, &exec.Ctx{Model: m.eng.Model})
		if err != nil {
			return nil, err
		}
		m.mergeParts = append(m.mergeParts, part)
	}

	// What-if inputs: one NREF2J query, and hypothetical configurations
	// that differ in which single-column indexes its tables carry, so
	// every one is a new relevance key (a miss) once, then a hit.
	pool := bench.NewLab(dataScale, dataSeed)
	pool.WorkloadSize = poolSize
	if m.query, err = m.eng.AnalyzeSQL(pool.Workload("B", "NREF2J").SQLs()[0]); err != nil {
		return nil, err
	}
	var ixs []conf.IndexDef
	seen := map[string]bool{}
	for _, qt := range m.query.Tables {
		if seen[qt.Table.Name] {
			continue
		}
		seen[qt.Table.Name] = true
		for _, c := range qt.Table.IndexableColumns() {
			ixs = append(ixs, conf.IndexDef{Table: qt.Table.Name, Columns: []string{c}})
		}
	}
	if len(ixs) > 9 {
		ixs = ixs[:9]
	}
	subset := func(mask int) conf.Configuration {
		c := engine.PConfiguration(m.eng)
		for b, d := range ixs {
			if mask&(1<<b) != 0 {
				c.AddIndex(d)
			}
		}
		return c
	}
	all := 1<<len(ixs) - 1
	m.hit = subset(all)
	for mask := 1; mask < all; mask++ {
		m.misses = append(m.misses, subset(mask))
	}
	m.whatif = m.eng.NewWhatIf()
	if _, err := m.whatif.Estimate(m.query, m.hit); err != nil {
		return nil, err
	}
	return m, nil
}

var sinkString string
var sinkInt int64

func (m *microLab) benchRowKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkString = m.rows[i%len(m.rows)].Key()
	}
}

func (m *microLab) benchBtreeInsert(b *testing.B) {
	b.ReportAllocs()
	t := btree.New(false)
	for i := 0; i < b.N; i++ {
		if err := t.Insert(m.keys[i%len(m.keys)], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func (m *microLab) benchBtreeSeek(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rid, ok := m.tree.SeekPrefix(m.keys[(i*7919)%len(m.keys)]).Next()
		if !ok {
			b.Fatal("key not found")
		}
		sinkInt = rid
	}
}

// benchHeapScan scans the whole taxonomy heap per iteration.
func (m *microLab) benchHeapScan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.heap.Scan(nil, func(id storage.RowID, r val.Row) bool {
			sinkInt += int64(len(r))
			return true
		})
	}
}

func (m *microLab) benchMergePartials(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := exec.MergePartials(m.mergePlan, m.mergeParts, &exec.Ctx{Model: m.eng.Model})
		if err != nil {
			b.Fatal(err)
		}
		sinkInt = int64(len(res.Rows))
	}
}

func (m *microLab) benchEstimateHit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.whatif.Estimate(m.query, m.hit); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEstimateMiss estimates configurations the session has not seen.
// A configuration is a miss only once per session, so every
// len(m.misses) iterations it opens a fresh session off the clock.
func (m *microLab) benchEstimateMiss(b *testing.B) {
	b.ReportAllocs()
	var w *engine.WhatIf
	for i := 0; i < b.N; i++ {
		k := i % len(m.misses)
		if k == 0 {
			b.StopTimer()
			w = m.eng.NewWhatIf()
			if _, err := w.Estimate(m.query, m.hit); err != nil { // derive every index once
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := w.Estimate(m.query, m.misses[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// fixedRun runs a benchmark body for exactly n iterations.
func fixedRun(n int, f func(*testing.B)) (testing.BenchmarkResult, error) {
	if err := flag.Set("test.benchtime", strconv.Itoa(n)+"x"); err != nil {
		return testing.BenchmarkResult{}, err
	}
	r := testing.Benchmark(f)
	if r.N != n {
		return r, fmt.Errorf("micro-benchmark ran %d of %d iterations (it failed)", r.N, n)
	}
	return r, nil
}

// runMicro runs every primitive benchmark at its fixed iteration count
// and folds the results into the per-layer table, with one-shot timings
// of statistics collection and NREF generation beside them.
func runMicro(out metrics) error {
	testing.Init()
	m, err := newMicroLab()
	if err != nil {
		return err
	}
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	type bm struct {
		n    int
		f    func(*testing.B)
		fold func(testing.BenchmarkResult)
	}
	for _, x := range []bm{
		{200000, m.benchRowKey, func(r testing.BenchmarkResult) {
			out.set("val.row_key.ns_per_op", nsPerOp(r), "ns")
			out.set("val.row_key.allocs_per_op", float64(r.MemAllocs)/float64(r.N), "count")
		}},
		{200000, m.benchBtreeInsert, func(r testing.BenchmarkResult) { out.set("btree.insert.ns_per_op", nsPerOp(r), "ns") }},
		{200000, m.benchBtreeSeek, func(r testing.BenchmarkResult) { out.set("btree.seek.ns_per_op", nsPerOp(r), "ns") }},
		{2000, m.benchHeapScan, func(r testing.BenchmarkResult) {
			out.set("storage.scan.ns_per_row", nsPerOp(r)/float64(len(m.rows)), "ns")
		}},
		{300, m.benchMergePartials, func(r testing.BenchmarkResult) { out.set("exec.merge_partials.us_per_op", nsPerOp(r)/1e3, "us") }},
		{50000, m.benchEstimateHit, func(r testing.BenchmarkResult) {
			out.set("engine.whatif.estimate_hit.us_per_op", nsPerOp(r)/1e3, "us")
		}},
		{len(m.misses), m.benchEstimateMiss, func(r testing.BenchmarkResult) {
			out.set("engine.whatif.estimate_miss.us_per_op", nsPerOp(r)/1e3, "us")
		}},
	} {
		r, err := fixedRun(x.n, x.f)
		if err != nil {
			return err
		}
		x.fold(r)
	}

	var collect, gen []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, t := range m.eng.Schema.Tables() {
			stats.Collect(m.eng.Heap(t.Name))
		}
		collect = append(collect, ms(time.Since(start)))

		fresh := engine.New(catalog.NREF(), dataScale, engine.SystemB())
		start = time.Now()
		if err := datagen.GenerateNREF(fresh, datagen.NREFOptions{ScaleFactor: dataScale, Seed: dataSeed}); err != nil {
			return err
		}
		gen = append(gen, ms(time.Since(start)))
	}
	out.set("stats.collect.ms", median(collect), "ms")
	out.set("datagen.nref.ms", median(gen), "ms")
	return nil
}

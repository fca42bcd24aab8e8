package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/val"
)

// This file is the cross-shard placement layer: given a query's join
// graph, decide per table ordinal whether a shard reads its stored
// partition (partition-wise join), a repartitioned exchange bucket
// (cross-shard row exchange), or the coordinator's full data
// (broadcast) — and build the exchange buckets.
//
// Correctness argument, shared by every placement mix: the planner
// co-partitions exactly one connected component of the join graph so
// that every result tuple's component rows carry pairwise co-located
// join keys (they are connected by a spanning set of aligned equi-join
// edges, and both stored hash partitions and exchange buckets route
// through hashShard). A result tuple's component rows therefore live on
// exactly one shard; every non-component row is broadcast, so the tuple
// is produced on that shard and no other. The union of the per-shard
// results — for any per-shard plan shape the optimizer picks — is the
// unpartitioned result, row for row.

// placeKind says how one query table ordinal is read on a shard.
type placeKind int

const (
	// placeBroadcast reads the coordinator's full table (the default for
	// ordinals outside the co-partitioned component).
	placeBroadcast placeKind = iota
	// placeNative reads the shard's stored partition, with its
	// partitioned indexes.
	placeNative
	// placeExchange reads a repartitioned bucket: the table's rows
	// rehashed on the join column, with no indexes.
	placeExchange
)

// placement is one ordinal's read strategy; col is the partition column
// for native and exchange placements.
type placement struct {
	kind placeKind
	col  int
}

// exKey identifies one repartitioning of one table.
type exKey struct {
	table string // lower-case table name
	col   int
}

// topology is one immutable generation of the cluster: the spec, the
// coordinator's physical design, the partition engines built for both,
// and the exchange-bucket cache keyed against exactly those shard counts.
// Queries load a *topology once and use it lock-free, so a query plans,
// runs and merges under one configuration; Reshard and Transition
// publish a fresh generation, so a query that began against the old one
// never joins old partitions with new-generation buckets.
type topology struct {
	spec   Spec
	coord  *plan.Physical
	shards []*engine.Engine // empty for a 1-shard topology
	// ex is shared by the generations Transition derives from this one:
	// buckets hold base rows only, which no configuration change moves.
	ex *exchangeCache
}

// exchangeCache holds the buckets built for one shard count.
type exchangeCache struct {
	mu      sync.Mutex
	buckets map[exKey][]*plan.TableInfo // conflint:guardedby mu
}

// planPlacements assigns a placement to every table ordinal of the
// query. It greedily grows aligned components over the join graph: an
// equi-join edge a.x = b.y is aligned when it can fix a's partition
// column to x and b's to y without contradicting an earlier edge.
// Edges that keep both sides on their stored partition keys are taken
// first, then half-native edges, then the rest (stable by join index),
// so the cheapest placements win ties deterministically. The component
// with the most coordinator rows is co-partitioned; everything else
// broadcasts.
//
// Unaligned edges inside the chosen component are fine: co-location
// only needs the aligned edges to span the component, and the
// executor still evaluates every join predicate (the extra edges act
// as filters).
//
// Native (stored-partition) reads require the ordinal's assigned
// column to be its table's partition key — and, in range mode, that
// the whole component is one table self-joined on that key, because
// range bounds are per-table quantiles and never co-locate across
// tables (nor with hash-routed exchange buckets).
func planPlacements(q *sql.Query, coord *plan.Physical, spec Spec) ([]placement, []exKey) {
	n := len(q.Tables)
	assigned := make([]int, n) // partition column per ordinal, -1 = unset
	parent := make([]int, n)
	nativeCol := make([]int, n)
	for i := range parent {
		parent[i] = i
		assigned[i] = -1
		nativeCol[i] = spec.keyOffset(q.Tables[i].Table)
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}

	type edge struct {
		a, b, ca, cb int
		rank         int // 0 native-native, 1 half-native, 2 neither
		idx          int
	}
	edges := make([]edge, 0, len(q.Joins))
	for idx, j := range q.Joins {
		if j.L.Tab == j.R.Tab {
			continue // intra-ordinal predicate, not a join edge
		}
		e := edge{a: j.L.Tab, b: j.R.Tab, ca: j.L.Col, cb: j.R.Col, idx: idx}
		switch {
		case e.ca == nativeCol[e.a] && e.cb == nativeCol[e.b]:
			e.rank = 0
		case e.ca == nativeCol[e.a] || e.cb == nativeCol[e.b]:
			e.rank = 1
		default:
			e.rank = 2
		}
		edges = append(edges, e)
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].rank != edges[j].rank {
			return edges[i].rank < edges[j].rank
		}
		return edges[i].idx < edges[j].idx
	})
	for _, e := range edges {
		if (assigned[e.a] != -1 && assigned[e.a] != e.ca) ||
			(assigned[e.b] != -1 && assigned[e.b] != e.cb) {
			continue // conflicts with an earlier (higher-priority) edge
		}
		if find(e.a) != find(e.b) {
			parent[find(e.a)] = find(e.b)
		}
		assigned[e.a], assigned[e.b] = e.ca, e.cb
	}

	// Weigh components by total coordinator rows; ties break to the
	// lowest member ordinal so the choice is deterministic.
	weight := make(map[int]int64, n)
	minOrd := make(map[int]int, n)
	for o := 0; o < n; o++ {
		r := find(o)
		if ti := coord.Table(q.Tables[o].Table.Name); ti != nil {
			weight[r] += ti.Heap.NumRows()
		}
		if cur, ok := minOrd[r]; !ok || o < cur {
			minOrd[r] = o
		}
	}
	bestRoot := find(0)
	for o := 1; o < n; o++ {
		r := find(o)
		if weight[r] > weight[bestRoot] ||
			(weight[r] == weight[bestRoot] && minOrd[r] < minOrd[bestRoot]) {
			bestRoot = r
		}
	}

	members := make([]int, 0, n)
	allNative, sameTable := true, true
	for o := 0; o < n; o++ {
		if find(o) != bestRoot {
			continue
		}
		if assigned[o] == -1 {
			assigned[o] = nativeCol[o] // singleton: partition on the stored key
		}
		members = append(members, o)
		if assigned[o] != nativeCol[o] {
			allNative = false
		}
		if q.Tables[o].Table.Name != q.Tables[members[0]].Table.Name {
			sameTable = false
		}
	}

	out := make([]placement, n)
	seen := make(map[exKey]bool, len(members))
	exchanged := make([]exKey, 0, len(members))
	for _, o := range members {
		native := assigned[o] == nativeCol[o]
		if spec.Mode == ModeRange {
			// Range bounds are per-table quantiles: stored partitions
			// co-locate across ordinals only when the whole component is
			// the same table on its own key.
			native = allNative && sameTable
		}
		if native {
			out[o] = placement{kind: placeNative, col: assigned[o]}
			continue
		}
		out[o] = placement{kind: placeExchange, col: assigned[o]}
		k := exKey{table: strings.ToLower(q.Tables[o].Table.Name), col: assigned[o]}
		if !seen[k] {
			seen[k] = true
			exchanged = append(exchanged, k)
		}
	}
	return out, exchanged
}

// noIndexes marks an ordinal as having data but no indexes; a non-nil
// empty override stops plan.IndexesAt from falling back to the
// coordinator's (full-data) index list.
var noIndexes = []*plan.IndexInfo{}

// shardPhysical assembles the physical description shard i plans
// against: the name maps stay the coordinator's full data (broadcast
// reads and IN-subquery set estimation are global), while per-ordinal
// overrides bind native placements to the partition engine's tables and
// indexes and exchange placements to the repartitioned buckets.
func (tp *topology) shardPhysical(q *sql.Query, pl []placement, i int) (*plan.Physical, error) {
	h := &plan.Physical{
		Schema:     tp.coord.Schema,
		Tables:     tp.coord.Tables,
		Indexes:    tp.coord.Indexes,
		Mem:        tp.coord.Mem,
		Model:      tp.coord.Model,
		TabTables:  make([]*plan.TableInfo, len(q.Tables)),
		TabIndexes: make([][]*plan.IndexInfo, len(q.Tables)),
	}
	var shardPhys *plan.Physical
	for o, p := range pl {
		name := q.Tables[o].Table.Name
		switch p.kind {
		case placeNative:
			if shardPhys == nil {
				shardPhys = tp.shards[i].Physical()
			}
			info := shardPhys.Table(name)
			if info == nil {
				return nil, fmt.Errorf("shard: partition %d has no table %s", i, name)
			}
			h.TabTables[o] = info
			if ixs := shardPhys.IndexesOn(name); ixs != nil {
				h.TabIndexes[o] = ixs
			} else {
				h.TabIndexes[o] = noIndexes
			}
		case placeExchange:
			infos, err := tp.exchange(name, p.col)
			if err != nil {
				return nil, err
			}
			h.TabTables[o] = infos[i]
			h.TabIndexes[o] = noIndexes
		}
	}
	return h, nil
}

// exchange returns the per-shard TableInfos of the named table
// repartitioned by hashShard on column col, building and caching the
// buckets on first use. The cache lives on the topology, so a reshard
// can never pair stale buckets with fresh partitions. Building is
// wall-clock work only; the simulated cost of an exchange is billed per
// query through billExchange.
func (tp *topology) exchange(name string, col int) ([]*plan.TableInfo, error) {
	key := exKey{table: strings.ToLower(name), col: col}
	ex := tp.ex
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if infos, ok := ex.buckets[key]; ok {
		return infos, nil
	}
	src := tp.coord.Table(name)
	if src == nil {
		return nil, fmt.Errorf("shard: no coordinator table %s to exchange", name)
	}
	n := tp.spec.Shards
	heaps := make([]*storage.Heap, n)
	for i := range heaps {
		heaps[i] = storage.NewHeap(src.Table)
	}
	var insErr error
	src.Heap.Scan(nil, func(_ storage.RowID, r val.Row) bool {
		if _, err := heaps[hashShard(r[col], n)].Insert(nil, r); err != nil {
			insErr = err
			return false
		}
		return true
	})
	if insErr != nil {
		return nil, insErr
	}
	infos := make([]*plan.TableInfo, n)
	for i, h := range heaps {
		infos[i] = &plan.TableInfo{Table: src.Table, Heap: h, Stats: stats.Collect(h)}
	}
	ex.buckets[key] = infos
	return infos, nil
}

// billExchange adds one shard's share of repartitioning a table to the
// meter: read 1/n of the source pages, hash and route 1/n of the rows.
// The share is a fixed function of the coordinator's table statistics
// and the shard count — never of cache state or pool width — so the
// sharded simulated cost stays byte-reproducible at any parallelism.
func billExchange(m *cost.Meter, src *plan.TableInfo, n int) {
	if src == nil || n < 1 {
		return
	}
	nn := int64(n)
	pages := src.Heap.Pages()
	rows := src.Stats.Rows
	m.SeqPages += (pages + nn - 1) / nn
	m.CPUOps += (rows + nn - 1) / nn * 2
	m.Rows += (rows + nn - 1) / nn
}

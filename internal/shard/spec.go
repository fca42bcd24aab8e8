// Package shard partitions the engine's heap tables (and the B+-trees
// built over them) across N race-safe engine partitions and executes
// queries partition-parallel over the bounded core.Runner pool, merging
// partial results through a deterministic reduction so that query output
// is byte-identical at any shard count (the PR 1/PR 5 discipline:
// indexed fan-out, sequential merge order, total result ordering).
//
// Partitioning model: every base table is split row-wise by a partition
// key — hash (FNV-1a over the key value's canonical encoding) or key
// range (boundaries at the value quantiles of the coordinator's data).
// Per query, a placement planner (exchange.go) co-partitions one
// connected component of the join graph: ordinals whose partition
// column is their table's stored key read their partition natively
// (partition-wise join), the rest are repartitioned by a cross-shard
// row exchange on the join column, and every table outside the
// component is broadcast (reads the coordinator's full data). Equal
// join keys therefore land on the same shard, so the union of the
// per-shard results is exactly the unpartitioned result; aggregates
// merge through open group states (exec.RunPartial /
// exec.MergePartials).
//
// The package also houses the elastic resource autoscaler (autoscale.go):
// a recommender deriving shard-count and pool-width proposals from
// sliding-window metrics via boolean scaling rules, and an updater
// applying them through live resharding — with dry-run and min/max
// safety bounds.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/val"
)

// Mode selects the partitioning function.
type Mode string

const (
	// ModeHash assigns a row to FNV-1a(key) mod N.
	ModeHash Mode = "hash"
	// ModeRange assigns rows by key range, with boundaries placed at the
	// N-quantiles of the coordinator's key values at build time.
	ModeRange Mode = "range"
)

// Spec declares a cluster topology: how many shards and how rows are
// assigned to them. The zero value means one shard (unpartitioned).
type Spec struct {
	// Shards is the partition count; values below 1 normalize to 1.
	Shards int
	// Mode is the partitioning function; empty normalizes to ModeHash.
	Mode Mode
	// Keys optionally overrides the partition column per table (keyed by
	// lower-case table name). Tables not listed use their primary key's
	// first column, or column 0 for keyless tables.
	Keys map[string]string
}

// normalized returns the spec with defaults applied.
func (s Spec) normalized() Spec {
	if s.Shards < 1 {
		s.Shards = 1
	}
	if s.Mode == "" {
		s.Mode = ModeHash
	}
	return s
}

// validate rejects specs the cluster cannot build.
func (s Spec) validate(schema *catalog.Schema) error {
	if s.Mode != ModeHash && s.Mode != ModeRange {
		return fmt.Errorf("shard: unknown mode %q", s.Mode)
	}
	for name, col := range s.Keys {
		t := schema.Table(name)
		if t == nil {
			return fmt.Errorf("shard: partition key for unknown table %q", name)
		}
		if t.ColumnIndex(col) < 0 {
			return fmt.Errorf("shard: table %s has no partition column %q", name, col)
		}
	}
	return nil
}

// keyOffset resolves the partition-key column offset for a table.
func (s Spec) keyOffset(t *catalog.Table) int {
	if col, ok := s.Keys[strings.ToLower(t.Name)]; ok {
		if ci := t.ColumnIndex(col); ci >= 0 {
			return ci
		}
	}
	if pk := t.PrimaryKeyOffsets(); len(pk) > 0 && pk[0] >= 0 {
		return pk[0]
	}
	return 0
}

// partitioner assigns one table's rows to shards. Built once per table at
// cluster construction; immutable afterwards (read concurrently without
// locking).
type partitioner struct {
	mode Mode
	n    int
	col  int
	// bounds are the n-1 ascending range boundaries (ModeRange): a value v
	// lands on the first shard i with v < bounds[i], else shard n-1.
	bounds []val.Value
}

// newPartitioner derives a table's partitioner from the coordinator's
// rows (ModeRange samples every key to place quantile boundaries).
func newPartitioner(s Spec, t *catalog.Table, rows []val.Row) *partitioner {
	p := &partitioner{mode: s.Mode, n: s.Shards, col: s.keyOffset(t)}
	if s.Mode != ModeRange || s.Shards <= 1 {
		return p
	}
	keys := make([]val.Value, 0, len(rows))
	for _, r := range rows {
		if !r[p.col].IsNull() {
			keys = append(keys, r[p.col])
		}
	}
	if len(keys) == 0 {
		return p // empty table: every (future) row lands on shard 0
	}
	sort.Slice(keys, func(i, j int) bool { return val.Compare(keys[i], keys[j]) < 0 })
	p.bounds = make([]val.Value, 0, s.Shards-1)
	for i := 1; i < s.Shards; i++ {
		p.bounds = append(p.bounds, keys[i*len(keys)/s.Shards])
	}
	return p
}

// locate returns the shard index for a row. NULL partition keys land on
// shard 0 in every mode.
func (p *partitioner) locate(r val.Row) int {
	if p.n <= 1 {
		return 0
	}
	v := r[p.col]
	if v.IsNull() {
		return 0
	}
	if p.mode == ModeRange {
		i := sort.Search(len(p.bounds), func(i int) bool { return val.Compare(v, p.bounds[i]) < 0 })
		return i
	}
	return hashShard(v, p.n)
}

// hashShard is the one hash-partitioning function of the package: FNV-1a
// over the value's canonical row encoding, mod n, with NULL pinned to
// shard 0. The stored hash partitions and the per-query row exchange
// must agree on it — a native side and an exchanged side of a join
// co-locate equal keys only because both route through hashShard.
func hashShard(v val.Value, n int) int {
	if n <= 1 || v.IsNull() {
		return 0
	}
	var buf [64]byte
	h := fnv.New64a()
	h.Write(val.AppendKey(buf[:0], v))
	return int(h.Sum64() % uint64(n))
}

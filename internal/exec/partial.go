// Partition-parallel execution support: a plan can be executed against a
// data partition producing a mergeable Partial instead of a final Result,
// and Partials from every partition merge deterministically into exactly
// the Result the unpartitioned execution would produce.
//
// The contract that makes merged results byte-identical at any partition
// count:
//
//   - non-aggregate queries concatenate partition rows in partition-index
//     order and re-sort with Run's exact comparator (ORDER BY keys, then
//     the canonical row order) — a total order, so the multiset of rows
//     determines the bytes;
//   - aggregate queries merge per-group states: counts add exactly
//     (int64), MIN/MAX merge through val.Compare (order-insensitive),
//     COUNT(DISTINCT) unions key sets, and SUM/AVG add float partial sums
//     in partition-index order. Integer-column sums are exact at every
//     partition count (each partial sum is an exactly-representable
//     integer); float-column sums can differ across partition counts by
//     reassociation ULPs — the benchmark families aggregate only COUNT(*)
//     and COUNT(DISTINCT), which are exact.
//
// Partition executions bill their own meters; the merge bills its row and
// group work to the merge context. The caller (internal/shard) combines
// them into the sharded cost: set computation + max over partitions +
// merge.
package exec

import (
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// Partial is the mergeable output of one partition's execution of a plan.
// It is produced by RunPartial and consumed by MergePartials; the zero
// value is not meaningful.
type Partial struct {
	rows   []val.Row  // non-aggregate: operator output rows (unsorted)
	groups []aggState // aggregate: per-group partial states
	keys   []string   // keys[i] is groups[i].groupVals.Key(), the cross-partition match
}

// RunPartial executes the plan over this partition's data and returns a
// mergeable partial result. For aggregate plans (HashAgg root) the
// aggregation state is kept open — counts, partial sums, min/max and
// distinct-value sets per group — so partitions of a group combine
// exactly. For every other plan shape the partition's finished rows are
// returned for concatenation. Billing (including hash-table spill
// accounting over this partition's group count) mirrors Run.
func RunPartial(p *plan.Plan, ctx *Ctx) (*Partial, error) {
	return newExecutor(p, ctx).runPartial()
}

func (e *executor) runPartial() (*Partial, error) {
	if err := e.buildSets(); err != nil {
		return nil, err
	}
	root, ok := e.p.Root.(*plan.HashAgg)
	if !ok {
		raw, err := e.collect(e.p.Root)
		if err != nil {
			return nil, err
		}
		return &Partial{rows: raw}, nil
	}

	groups, err := e.accumulateAgg(root)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(groups))
	for i, st := range groups {
		keys[i] = st.groupVals.Key()
	}
	return &Partial{groups: groups, keys: keys}, nil
}

// cloneAggState deep-copies one group's partial state (distinct sets
// included) so folding can proceed without mutating the source partial:
// MergePartials treats its inputs as read-only.
func cloneAggState(src aggState) aggState {
	dst := aggState{groupVals: src.groupVals, slots: append([]aggSlot(nil), src.slots...)}
	for i := range dst.slots {
		dst.slots[i].distinct = valueSet{}
		dst.slots[i].distinct.union(&src.slots[i].distinct)
	}
	return dst
}

// mergeAggState folds src (one partition's state for a group) into dst in
// place; src is only read. Each aggregate reads only its own kind's
// fields (aggSlot). Partitions are folded in partition-index order, which
// fixes the float-sum association; everything else is order-insensitive.
func mergeAggState(aggs []plan.AggSpec, dst, src aggState) {
	for i, a := range aggs {
		d, s := &dst.slots[i], &src.slots[i]
		switch a.Kind {
		case sql.AggCountStar, sql.AggCountCol:
			d.count += s.count
		case sql.AggCountDistinct:
			d.distinct.union(&s.distinct)
		case sql.AggSum, sql.AggAvg:
			d.count += s.count
			d.sum += s.sum
		case sql.AggMin:
			if !s.min.IsNull() && (d.min.IsNull() || val.Compare(s.min, d.min) < 0) {
				d.min = s.min
			}
		case sql.AggMax:
			if !s.max.IsNull() && (d.max.IsNull() || val.Compare(s.max, d.max) > 0) {
				d.max = s.max
			}
		}
	}
}

// MergePartials reduces the partitions' partial results — in
// partition-index order — into the final Result for the plan, billing the
// merge's row and group work to ctx. The plan must be the one the
// partials were produced from (any partition's plan, or the
// coordinator's: only the Query output mapping and root shape are
// consulted). Nil partials are rejected by construction: callers must
// pass one partial per partition. The partials themselves are read-only
// inputs: fold states are cloned before the first in-place merge (lazily
// — single-partition groups are adopted without copying), so the same
// partials can be merged again or inspected afterwards.
//
// The merge leaves its partials as it found them: it is the
// topology-invariance keystone, so it must observe the partials, not
// consume them, and shard counts can change between (and even during,
// for audit re-merges) executions. Billing to ctx through the fresh
// executor is the one sanctioned write: a merge prices its own work like
// every operator. TestMergePartialsLeavesInputsIntact pins this.
func MergePartials(p *plan.Plan, parts []*Partial, ctx *Ctx) (*Result, error) {
	e := &executor{ctx: ctx, p: p}
	total := 0
	for _, part := range parts {
		total += len(part.rows) + len(part.groups)
	}
	raw := make([]val.Row, 0, total)
	if _, isAgg := p.Root.(*plan.HashAgg); isAgg {
		// Fold every partition's states group-by-group. A group's first
		// occurrence (lowest partition index) is the fold seed, and later
		// partitions fold in index order, so per-group results are
		// deterministic.
		agg := p.Root.(*plan.HashAgg)
		at := make(map[string]int) // group key → index in merged
		var merged []aggState
		var cloned []bool // merged[i] is a copy this merge owns
		for _, part := range parts {
			for i, st := range part.groups {
				e.ctx.Meter.CPUOps++
				j, ok := at[part.keys[i]]
				if !ok {
					at[part.keys[i]] = len(merged)
					merged = append(merged, st)
					cloned = append(cloned, false)
					continue
				}
				if !cloned[j] {
					merged[j], cloned[j] = cloneAggState(merged[j]), true
				}
				mergeAggState(agg.Aggs, merged[j], st)
			}
			if err := e.ctx.check(); err != nil {
				return nil, err
			}
		}
		for _, st := range merged {
			raw = append(raw, finishGroup(make(val.Row, len(agg.Groups)+len(agg.Aggs)), agg, st))
		}
	} else {
		for _, part := range parts {
			e.ctx.Meter.CPUOps += int64(len(part.rows))
			raw = append(raw, part.rows...)
			if err := e.ctx.check(); err != nil {
				return nil, err
			}
		}
	}

	// Identical final ordering to Run: the same assemble.
	return e.assemble(raw), nil
}

// Package exec executes physical plans over the storage engine.
//
// Execution is real — rows are read, hashed, joined and aggregated — and
// every logical I/O and per-row operation is billed to a cost.Meter with
// the same accounting rules the optimizer uses for its estimates. The
// difference between an estimate E(q,C) and an actual measurement A(q,C)
// is therefore exactly the optimizer's cardinality estimation error, which
// is the phenomenon the paper's Section 5 studies.
//
// Execution is push-based: each operator drives rows into a callback.
// A simulated-time limit (the paper's 30-minute timeout) aborts execution
// with ErrTimeout.
package exec

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// ErrTimeout reports that the simulated-time limit was exceeded.
var ErrTimeout = errors.New("exec: query exceeded the simulated-time limit")

// Ctx carries the cost meter, cost model and time limit for one execution.
type Ctx struct {
	Meter cost.Meter
	Model cost.Model
	// LimitSeconds aborts execution when the simulated elapsed time
	// exceeds it; 0 disables the limit.
	LimitSeconds float64

	// Preset, when non-nil, supplies the IN-subquery sets instead of
	// computing them from the plan — the sharded execution path computes
	// each set once on the coordinator (over the full tables, so HAVING
	// COUNT(*) predicates see global counts) and injects the sets into
	// every partition's execution. Must hold exactly one entry per
	// plan.InSets, in order; the set computation is not billed here (the
	// coordinator billed it once).
	Preset []InSetValues

	ticks int
}

// InSetValues is the materialized value list of one IN-subquery set, in
// the deterministic (ascending) probe order ComputeInSets produces, with
// the set itself: every partition reads that one set, none rebuilds it.
// Only ComputeInSets makes a usable one.
type InSetValues struct {
	Vals []val.Value
	set  *inSet
}

// Seconds returns the simulated time consumed so far.
func (c *Ctx) Seconds() float64 { return c.Model.Seconds(&c.Meter) }

// check tests the time limit (amortized: the limit is evaluated every
// 1024 calls).
func (c *Ctx) check() error {
	c.ticks++
	if c.LimitSeconds <= 0 || c.ticks%1024 != 0 {
		return nil
	}
	if c.Seconds() > c.LimitSeconds {
		return ErrTimeout
	}
	return nil
}

// Result is the output of a query: column names and rows, sorted
// lexicographically for determinism.
type Result struct {
	Cols []string
	Rows []val.Row
}

// inSet is a computed IN-subquery set: the membership test plus the
// ordered values (for set-driven index probes).
type inSet struct {
	valueSet
	vals []val.Value
}

// add inserts v unless it is already a member.
func (s *inSet) add(v val.Value) {
	if s.valueSet.add(v) {
		s.vals = append(s.vals, v)
	}
}

// executor is one execution of one plan by one goroutine. Everything an
// operator reuses across tuples — its scratch row, its tables — is
// created by that operator's run* call, so it belongs to this executor
// alone; the sharded path runs one executor per partition goroutine, and
// all they share is the injected IN-sets, which they only read.
type executor struct {
	ctx  *Ctx
	p    *plan.Plan
	sets []*inSet
	live []bool // readSet(p): the offsets a hash join keeps and copies

	// enumerate makes every HashAgg enumerate its input rows, even where
	// it could fold a join's chains (foldable). Only tests set it: the
	// enumerating path is the fold's reference.
	enumerate bool
}

func newExecutor(p *plan.Plan, ctx *Ctx) *executor {
	return &executor{ctx: ctx, p: p, live: readSet(p)}
}

// Run executes the plan and returns its result.
func Run(p *plan.Plan, ctx *Ctx) (*Result, error) {
	return newExecutor(p, ctx).run()
}

func (e *executor) run() (*Result, error) {
	if err := e.buildSets(); err != nil {
		return nil, err
	}
	raw, err := e.collect(e.p.Root)
	if err != nil {
		return nil, err
	}
	return e.assemble(raw), nil
}

// collect runs n and keeps its rows. It is a retainer of borrowed rows,
// so it clones each one.
func (e *executor) collect(n plan.Node) ([]val.Row, error) {
	var rows []val.Row
	err := e.runNode(n, func(r val.Row) error {
		rows = append(rows, r.Clone())
		return nil
	})
	return rows, err
}

// assemble reorders operator output into the query's select-list order
// and sorts it: ORDER BY keys first (when present), then the canonical
// row order as a deterministic tiebreak.
func (e *executor) assemble(raw []val.Row) *Result {
	q := e.p.Query
	res := &Result{}
	for _, o := range q.Out {
		res.Cols = append(res.Cols, o.Name)
	}
	switch e.p.Root.(type) {
	case *plan.HashAgg:
		// HashAgg emits [group values..., agg values...].
		ng := len(q.GroupBy)
		for _, r := range raw {
			out := make(val.Row, len(q.Out))
			for i, o := range q.Out {
				if o.Kind == sql.OutGroup {
					out[i] = r[o.Index]
				} else {
					out[i] = r[ng+o.Index]
				}
			}
			res.Rows = append(res.Rows, out)
		}
	default:
		res.Rows = raw
	}
	specs := q.OrderBy
	sort.Slice(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		for _, o := range specs {
			c := val.Compare(a[o.OutIdx], b[o.OutIdx])
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return val.CompareRows(a, b) < 0
	})
	return res
}

// buildSets materializes the plan's IN-subquery sets: from ctx.Preset
// when injected (unbilled — the coordinator already paid), otherwise by
// computing each set with billing.
func (e *executor) buildSets() error {
	if e.ctx.Preset != nil {
		if len(e.ctx.Preset) != len(e.p.InSets) {
			return fmt.Errorf("exec: %d preset IN-sets for a plan with %d", len(e.ctx.Preset), len(e.p.InSets))
		}
		for _, ps := range e.ctx.Preset {
			e.sets = append(e.sets, ps.set)
		}
		return nil
	}
	for i := range e.p.InSets {
		set, err := e.computeInSet(&e.p.InSets[i])
		if err != nil {
			return err
		}
		e.sets = append(e.sets, set)
	}
	return nil
}

// ComputeInSets evaluates the plan's IN-subquery sets, billing the work
// to ctx, and returns the sets for injection into other executions via
// Ctx.Preset. The sharded path calls this once on the
// coordinator so every partition tests membership against the same
// globally-computed sets.
func ComputeInSets(p *plan.Plan, ctx *Ctx) ([]InSetValues, error) {
	e := &executor{ctx: ctx, p: p}
	out := make([]InSetValues, len(p.InSets))
	for i := range p.InSets {
		set, err := e.computeInSet(&p.InSets[i])
		if err != nil {
			return nil, err
		}
		out[i] = InSetValues{Vals: set.vals, set: set}
	}
	return out, nil
}

// computeInSet evaluates one IN-subquery set.
func (e *executor) computeInSet(is *plan.InSetPlan) (*inSet, error) {
	set := &inSet{}
	p := is.Pred

	if is.Index != nil {
		// Index-only scan: keys arrive sorted, so the HAVING COUNT(*)
		// test streams on group boundaries.
		ir, err := e.openIndex(is.Index)
		if err != nil {
			return nil, err
		}
		defer ir.close()
		it := is.Index.Tree.Scan()
		var curKey val.Value
		var curCount int64
		haveCur := false
		flush := func() {
			if haveCur && (p.Having == nil || cmpHaving(curCount, p.Having)) {
				set.add(curKey)
			}
		}
		for {
			k, _, ok, err := ir.next(it)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			v := k[0]
			if v.IsNull() {
				continue
			}
			if haveCur && val.Equal(v, curKey) {
				curCount++
				continue
			}
			flush()
			curKey, curCount, haveCur = v, 1, true
		}
		flush()
		return set, nil
	}

	// Sequential scan plus hash aggregation.
	var counts valueMap[int64]
	err := e.scan(is.Info.Heap, func(r val.Row) error {
		v := r[p.SubCol]
		if v.IsNull() {
			return nil
		}
		for _, ss := range p.SubSels {
			if !sql.CompareOp(ss.Op, r[ss.Col], ss.Value) {
				return nil
			}
		}
		e.ctx.Meter.CPUOps++
		n, _ := counts.get(v)
		counts.set(v, n+1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.spill(int64(counts.len())*24, 0) // the count table's entries
	counts.each(func(v val.Value, n int64) {
		if p.Having == nil || cmpHaving(n, p.Having) {
			set.add(v)
		}
	})
	// Keep probe order deterministic.
	sort.Slice(set.vals, func(i, j int) bool { return val.Compare(set.vals[i], set.vals[j]) < 0 })
	return set, nil
}

func cmpHaving(n int64, h *sql.Having) bool {
	switch h.Op {
	case "=":
		return n == h.Value
	case "<>":
		return n != h.Value
	case "<":
		return n < h.Value
	case "<=":
		return n <= h.Value
	case ">":
		return n > h.Value
	case ">=":
		return n >= h.Value
	}
	return false
}

func scaleOf(m cost.Model) float64 {
	if m.Scale == 0 {
		return 1
	}
	return m.Scale
}

// memOf returns the full-scale memory budget the plan was costed under;
// a plan with no recorded budget never spills.
func memOf(e *executor) int64 {
	if e.p.Mem > 0 {
		return e.p.Mem
	}
	return 1 << 62
}

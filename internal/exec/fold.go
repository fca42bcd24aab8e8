package exec

import (
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// Aggregating through a hash join (DESIGN §6c). When a HashAgg reads a
// keyed HashJoin directly, every aggregate is a count and every group
// column comes from one side, the aggregate needs only, per probe row and
// build key, how many rows meet and which values they carry — not the
// joined rows one by one. foldJoin runs the join's build and probe sides
// itself and folds each key's chain into the groups once:
//
//   - groups on the probe side: each matching probe row finds its group
//     once and adds its key's chain length (or the chain's non-NULL
//     argument count); a build-side COUNT(DISTINCT) walks a chain once
//     per (group, key) pair;
//   - groups on the build side: a key's chain is grouped row by row when
//     a probe row first meets the key; each key gathers its probe rows'
//     count and DISTINCT values, and after the probe each (group, key)
//     pair takes them once (a key whose chain holds one group hands its
//     DISTINCT values straight to that group).
//
// The meter and the time limit see exactly what the enumerating path
// would show them: one CPUOps per joined row and one more per non-NULL
// COUNT(DISTINCT) argument, and one check per joined row (charge).

// foldable reports whether n can aggregate through its input join, and
// whether its groups are the build side's; with no group columns the
// groups are the probe side's.
func (e *executor) foldable(n *plan.HashAgg) (j *plan.HashJoin, groupsOnBuild, ok bool) {
	j, ok = n.Input.(*plan.HashJoin)
	if !ok || e.enumerate || len(j.BuildKeys) == 0 {
		return nil, false, false
	}
	for _, a := range n.Aggs {
		if a.Kind != sql.AggCountStar && a.Kind != sql.AggCountCol && a.Kind != sql.AggCountDistinct {
			return nil, false, false
		}
	}
	onBuild := 0
	for _, o := range n.Groups {
		if e.builds(j, o) {
			onBuild++
		}
	}
	switch onBuild {
	case 0:
		return j, false, true
	case len(n.Groups):
		return j, true, true
	}
	return nil, false, false
}

// builds reports whether flat offset o belongs to a table j's build side
// populates.
func (e *executor) builds(j *plan.HashJoin, o int) bool {
	l := e.p.Layout
	for _, t := range tabsOf(j.Build) {
		if o >= l.Base[t] && o < l.Base[t]+len(e.p.Query.Tables[t].Table.Columns) {
			return true
		}
	}
	return false
}

// foldArg is one aggregate of a fold.
type foldArg struct {
	kind  sql.AggKind
	build bool // its argument is a build-side column (COUNT(*) has none)
	at    int  // build side: the argument's position in a build row's live values; probe side: its flat offset
	x     int  // its index among the per-key counters or sets of its side and kind
}

// fold is one HashAgg folding one HashJoin's chains into an aggTable.
type fold struct {
	ctx  *Ctx
	n    *plan.HashAgg
	h    *hashTable
	t    *aggTable
	args []foldArg

	keys    []foldKey
	nb      int     // build-side arguments
	nonNull []int64 // nonNull[k*nb+x]: key k's chain rows whose build-side argument x is not NULL

	// Groups on the probe side: the (group, key) pairs whose chain values
	// a build-side COUNT(DISTINCT) already holds (nil without one).
	paired map[uint64]struct{}

	// Groups on the build side.
	groupAt     []int      // the group columns' positions in a build row's live values
	npc, npd    int        // probe-side COUNT(col) and COUNT(DISTINCT) arguments
	probeCounts []int64    // probeCounts[k*npc+x]: key k's probe rows whose argument x is not NULL
	sole        []int      // with probe-side COUNT(DISTINCT)s, key → the one group of its chain once met, or -1
	probeSets   []valueSet // probeSets[k*npd+x]: key k's probe rows' non-NULL values of argument x, made when a key first has several groups
	pairOf      []int      // group → its pair with the key being grouped, plus one
	// pairs holds one (group, key) pair per pairStride values — the
	// group, the key, its rows, then its rows per build-side argument
	// that is not NULL — key by key in the order probe rows meet them.
	pairs []int64
}

// foldKey is what a fold knows of one build key.
type foldKey struct {
	rows   int64 // its chain's length
	probes int64 // with groups on the build side: probe rows that met it so far
}

// pairStride is the length of one pair in fold.pairs.
func (f *fold) pairStride() int { return 3 + f.nb }

// foldJoin accumulates n's groups into t from j without enumerating
// joined rows. The probe callback does the join's own per-row work —
// one CPUOps and one check per probe row — then charges and folds the
// row's matches; the join's spill is billed after the probe, as
// runHashJoin bills it.
func (e *executor) foldJoin(n *plan.HashAgg, j *plan.HashJoin, groupsOnBuild bool, t *aggTable) error {
	h, err := e.buildHash(j)
	if err != nil {
		return err
	}
	f := newFold(e, n, j, h, t, groupsOnBuild)
	var probeRows int64
	err = e.runNode(j.Probe, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		probeRows++
		if err := e.ctx.check(); err != nil {
			return err
		}
		k := h.keys.find(r, j.ProbeKeys)
		if k < 0 {
			return nil
		}
		if err := f.charge(k, r); err != nil {
			return err
		}
		if groupsOnBuild {
			f.meetOnBuild(k, r)
		} else {
			f.meetOnProbe(k, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if groupsOnBuild {
		f.finishOnBuild()
	}
	e.spill(int64(len(h.link))*int64(j.BuildWidth), probeRows*int64(j.BuildWidth))
	return nil
}

// newFold sorts n's aggregates by side and kind and counts each key's
// chain rows, and its non-NULL build-side arguments.
func newFold(e *executor, n *plan.HashAgg, j *plan.HashJoin, h *hashTable, t *aggTable, groupsOnBuild bool) fold {
	f := fold{ctx: e.ctx, n: n, h: h, t: t, args: make([]foldArg, len(n.Aggs))}
	buildDistinct := false
	for i, a := range n.Aggs {
		fa := foldArg{kind: a.Kind, at: a.Offset}
		if a.Kind != sql.AggCountStar && e.builds(j, a.Offset) {
			fa.build, fa.at, fa.x = true, h.position(a.Offset), f.nb
			f.nb++
			buildDistinct = buildDistinct || a.Kind == sql.AggCountDistinct
		} else if a.Kind == sql.AggCountCol {
			fa.x = f.npc
			f.npc++
		} else if a.Kind == sql.AggCountDistinct {
			fa.x = f.npd
			f.npd++
		}
		f.args[i] = fa
	}

	nk := len(h.first)
	f.keys = make([]foldKey, nk)
	if f.nb > 0 {
		f.nonNull = make([]int64, nk*f.nb)
	}
	for k := range h.first {
		for i := h.first[k] - 1; i >= 0; i = h.link[i] - 1 {
			f.keys[k].rows++
			row := h.row(i)
			for _, a := range f.args {
				if a.build && !row[a.at].IsNull() {
					f.nonNull[k*f.nb+a.x]++
				}
			}
		}
	}

	if !groupsOnBuild {
		if buildDistinct {
			f.paired = map[uint64]struct{}{}
		}
		return f
	}
	f.groupAt = make([]int, len(n.Groups))
	for i, o := range n.Groups {
		f.groupAt[i] = h.position(o)
	}
	if f.npc > 0 {
		f.probeCounts = make([]int64, nk*f.npc)
	}
	if f.npd > 0 {
		f.sole = make([]int, nk)
	}
	return f
}

// charge bills probe row r's joined rows — those of key k's chain — and
// advances the check ticks past them. When a check among them would test
// the limit and the limit is exceeded once they are billed, overrun finds
// the first such check that sees it exceeded.
func (f *fold) charge(k int, r val.Row) error {
	n := f.keys[k].rows
	ops := n
	for _, a := range f.args {
		if a.kind != sql.AggCountDistinct {
			continue
		}
		if a.build {
			ops += f.nonNull[k*f.nb+a.x]
		} else if !r[a.at].IsNull() {
			ops += n
		}
	}
	c := f.ctx
	t0, base := c.ticks, c.Meter.CPUOps
	c.ticks += int(n)
	c.Meter.CPUOps += ops
	if c.LimitSeconds <= 0 || c.ticks/1024 == t0/1024 || c.Seconds() <= c.LimitSeconds {
		return nil
	}
	return f.overrun(k, r, t0, base)
}

// overrun replays the enumerating path's billing of key k's chain for
// probe row r — per joined row one CPUOps, a check, then one CPUOps per
// non-NULL COUNT(DISTINCT) argument — from check tick t0 and CPUOps
// base, and stops with the meter and ticks where that path's first
// failing check leaves them.
func (f *fold) overrun(k int, r val.Row, t0 int, base int64) error {
	c := f.ctx
	end := c.Meter.CPUOps
	probeOps := int64(0)
	for _, a := range f.args {
		if a.kind == sql.AggCountDistinct && !a.build && !r[a.at].IsNull() {
			probeOps++
		}
	}
	t, ops := t0, base
	for i := f.h.first[k] - 1; i >= 0; i = f.h.link[i] - 1 {
		t++
		ops++
		if t%1024 == 0 {
			c.Meter.CPUOps = ops
			if c.Seconds() > c.LimitSeconds {
				c.ticks = t
				return ErrTimeout
			}
		}
		ops += probeOps
		row := f.h.row(i)
		for _, a := range f.args {
			if a.kind == sql.AggCountDistinct && a.build && !row[a.at].IsNull() {
				ops++
			}
		}
	}
	c.Meter.CPUOps = end
	return nil
}

// meetOnProbe folds key k's chain into probe row r's group.
func (f *fold) meetOnProbe(k int, r val.Row) {
	g := f.t.group(r, f.n.Groups)
	st := f.t.slotsOf(g)
	fresh := false // the first time g meets k, for the build-side DISTINCT values
	if f.paired != nil {
		pair := uint64(g)<<32 | uint64(k)
		if _, ok := f.paired[pair]; !ok {
			f.paired[pair] = struct{}{}
			fresh = true
		}
	}
	for i, a := range f.args {
		s := &st[i]
		switch {
		case a.kind == sql.AggCountStar:
			s.count += f.keys[k].rows
		case a.build && a.kind == sql.AggCountCol:
			s.count += f.nonNull[k*f.nb+a.x]
		case a.build:
			if fresh {
				for j := f.h.first[k] - 1; j >= 0; j = f.h.link[j] - 1 {
					if v := f.h.row(j)[a.at]; !v.IsNull() {
						s.distinct.add(v)
					}
				}
			}
		case r[a.at].IsNull():
		case a.kind == sql.AggCountCol:
			s.count += f.keys[k].rows
		default:
			s.distinct.add(r[a.at])
		}
	}
}

// meetOnBuild records probe row r against key k, grouping k's chain the
// first time a probe row meets it.
func (f *fold) meetOnBuild(k int, r val.Row) {
	if f.keys[k].probes == 0 {
		f.group(k)
	}
	f.keys[k].probes++
	for i, a := range f.args {
		switch {
		case a.build || a.kind == sql.AggCountStar || r[a.at].IsNull():
		case a.kind == sql.AggCountCol:
			f.probeCounts[k*f.npc+a.x]++
		case f.sole[k] >= 0: // the key's one pair would take the set whole
			f.t.slotsOf(f.sole[k])[i].distinct.add(r[a.at])
		default:
			f.probeSets[k*f.npd+a.x].add(r[a.at])
		}
	}
}

// group finds the group of every row of key k's chain, in chain order —
// the order in which the enumerating path first sees them — and records
// one pair per distinct group with its row counts. A build-side DISTINCT
// value goes to its group here: its row meets at least this probe row.
// A key whose chain has one group needs no set of its own: its probe
// rows' DISTINCT values go to that group's set as they arrive.
func (f *fold) group(k int) {
	stride := f.pairStride()
	if f.pairs == nil { // room for one pair per key
		f.pairOf = make([]int, 0, len(f.keys))
		f.pairs = make([]int64, 0, len(f.keys)*stride)
	}
	start := len(f.pairs) / stride
	for i := f.h.first[k] - 1; i >= 0; i = f.h.link[i] - 1 {
		row := f.h.row(i)
		g := f.t.group(row, f.groupAt)
		if g == len(f.pairOf) {
			f.pairOf = append(f.pairOf, 0)
		}
		p := f.pairOf[g] - 1
		if p < start {
			p = len(f.pairs) / stride
			f.pairOf[g] = p + 1
			f.pairs = append(grow(f.pairs, stride), int64(g), int64(k))
			f.pairs = f.pairs[:(p+1)*stride] // pairs only grows, so its spare capacity is zero
		}
		w := f.pairs[p*stride+2 : (p+1)*stride]
		w[0]++
		st := f.t.slotsOf(g)
		for i, a := range f.args {
			if !a.build || row[a.at].IsNull() {
				continue
			}
			w[1+a.x]++
			if a.kind == sql.AggCountDistinct {
				st[i].distinct.add(row[a.at])
			}
		}
	}
	if f.sole == nil {
		return
	}
	f.sole[k] = -1
	if len(f.pairs)/stride == start+1 {
		f.sole[k] = int(f.pairs[start*stride])
	} else if f.probeSets == nil {
		f.probeSets = make([]valueSet, len(f.keys)*f.npd)
	}
}

// finishOnBuild folds each key's probe rows into the groups of its
// pairs: a pair's rows times the key's probe rows for a count, and the
// key's probe-side DISTINCT values once per pair.
func (f *fold) finishOnBuild() {
	stride := f.pairStride()
	for p := 0; p < len(f.pairs); p += stride {
		st, k, w := f.t.slotsOf(int(f.pairs[p])), int(f.pairs[p+1]), f.pairs[p+2:p+stride]
		probes := f.keys[k].probes
		for i, a := range f.args {
			s := &st[i]
			switch {
			case a.kind == sql.AggCountStar:
				s.count += w[0] * probes
			case a.build && a.kind == sql.AggCountCol:
				s.count += w[1+a.x] * probes
			case a.build:
			case a.kind == sql.AggCountCol:
				s.count += w[0] * f.probeCounts[k*f.npc+a.x]
			case f.sole[k] < 0: // a sole group took the values as they came
				s.distinct.union(&f.probeSets[k*f.npd+a.x])
			}
		}
	}
}

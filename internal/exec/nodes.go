package exec

import (
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// runNode pushes the rows produced by n into out. Rows are flat layout
// rows; each operator populates the segments of the tables it covers.
//
// A row handed to out is borrowed: it is the operator's one scratch row,
// valid until out returns and overwritten by the next tuple. Whoever
// keeps a row copies it — the hash join's build side (its live values)
// and the result collector (collect) are the only retainers.
func (e *executor) runNode(n plan.Node, out func(val.Row) error) error {
	switch n := n.(type) {
	case *plan.SeqScan:
		return e.runSeqScan(n, out)
	case *plan.IndexScan:
		return e.runIndexScan(n, out)
	case *plan.ViewScan:
		return e.runViewScan(n, out)
	case *plan.HashJoin:
		return e.runHashJoin(n, out)
	case *plan.IndexJoin:
		return e.runIndexJoin(n, out)
	case *plan.MergeJoin:
		return e.runMergeJoin(n, out)
	case *plan.HashAgg:
		return e.runHashAgg(n, out)
	case *plan.Project:
		return e.runProject(n, out)
	}
	return fmt.Errorf("exec: unknown plan node %T", n)
}

// tabsOf returns the table ordinals whose segments node n populates.
func tabsOf(n plan.Node) []int {
	switch n := n.(type) {
	case *plan.SeqScan:
		return []int{n.Tab}
	case *plan.IndexScan:
		return []int{n.Tab}
	case *plan.ViewScan:
		return append([]int(nil), n.Tabs...)
	case *plan.HashJoin:
		return append(tabsOf(n.Build), tabsOf(n.Probe)...)
	case *plan.IndexJoin:
		return append(tabsOf(n.Outer), n.Tab)
	case *plan.MergeJoin:
		return []int{n.L.Tab, n.R.Tab}
	case *plan.HashAgg:
		return tabsOf(n.Input)
	case *plan.Project:
		return tabsOf(n.Input)
	}
	return nil
}

// readSet returns the flat offsets some operator reads from a row its
// input produced, or every offset when the root hands whole flat rows to
// the caller; hash joins keep and copy only these. DESIGN §6a says why
// filters are not among them.
func readSet(p *plan.Plan) []bool {
	live := make([]bool, p.Layout.Width)
	mark := func(offs ...int) {
		for _, o := range offs {
			live[o] = true
		}
	}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		switch n := n.(type) {
		case *plan.HashJoin:
			mark(n.BuildKeys...)
			mark(n.ProbeKeys...)
			walk(n.Build)
			walk(n.Probe)
		case *plan.IndexJoin:
			for _, b := range n.Binds {
				if b.Const == nil {
					mark(b.OuterOffset)
				}
			}
			for _, pe := range n.PostEq {
				mark(pe.A, pe.B)
			}
			walk(n.Outer)
		case *plan.HashAgg:
			mark(n.Groups...)
			for _, a := range n.Aggs {
				if a.Kind != sql.AggCountStar {
					mark(a.Offset)
				}
			}
			walk(n.Input)
		case *plan.Project:
			mark(n.Offsets...)
			walk(n.Input)
		}
	}
	switch p.Root.(type) {
	case *plan.HashAgg, *plan.Project:
		walk(p.Root)
	default:
		for o := range live {
			live[o] = true
		}
	}
	return live
}

// liveIn returns the read-set offsets of the segments n populates.
func (e *executor) liveIn(n plan.Node) []int {
	var offs []int
	l := e.p.Layout
	for _, t := range tabsOf(n) {
		for o := l.Base[t]; o < l.Base[t]+len(e.p.Query.Tables[t].Table.Columns); o++ {
			if e.live[o] {
				offs = append(offs, o)
			}
		}
	}
	return offs
}

// passes evaluates pushed-down filters and IN filters on a flat row.
func (e *executor) passes(r val.Row, filters []plan.Filter, ins []plan.InFilter) bool {
	for _, f := range filters {
		e.ctx.Meter.CPUOps++
		if !f.Eval(r) {
			return false
		}
	}
	for _, f := range ins {
		e.ctx.Meter.CPUOps++
		if !e.sets[f.SetID].contains(r[f.Offset]) {
			return false
		}
	}
	return true
}

func (e *executor) runSeqScan(n *plan.SeqScan, out func(val.Row) error) error {
	base := e.p.Layout.Base[n.Tab]
	flat := make(val.Row, e.p.Layout.Width)
	return e.scan(n.Info.Heap, func(r val.Row) error {
		copy(flat[base:], r)
		if !e.passes(flat, n.Filters, n.Ins) {
			return nil
		}
		return out(flat)
	})
}

func (e *executor) runIndexScan(n *plan.IndexScan, out func(val.Row) error) error {
	ir, err := e.openIndex(n.Index)
	if err != nil {
		return err
	}
	defer ir.close()
	cur := n.Info.Heap.NewCursor()

	// With RidSort the matching rids are gathered first and the heap is
	// read in page order afterwards (list prefetch); otherwise each match
	// is fetched (or emitted from the key, if covering) as it streams out
	// of the index.
	ridSort := n.RidSort && !n.Covering
	ridList := make([]storage.RowID, 0, 256)
	base := e.p.Layout.Base[n.Tab]
	flat := make(val.Row, e.p.Layout.Width)
	emit := func() error {
		if !e.passes(flat, n.Filters, n.Ins) {
			return nil
		}
		return out(flat)
	}
	emitRow := func(r val.Row) error {
		copy(flat[base:], r)
		return emit()
	}
	consume := func(it *btree.Iter) error {
		for {
			k, rid, ok, err := ir.next(it)
			if err != nil || !ok {
				return err
			}
			switch {
			case ridSort:
				ridList = append(ridList, storage.RowID(rid))
			case n.Covering:
				for j, c := range n.Index.Cols {
					flat[base+c] = k[j]
				}
				err = emit()
			default:
				var r val.Row
				if r, err = cur.Fetch(&e.ctx.Meter, storage.RowID(rid)); err == nil {
					err = emitRow(r)
				}
			}
			if err != nil {
				return err
			}
		}
	}

	if n.DriveInSet >= 0 {
		// One probe per IN-set value.
		for _, v := range e.sets[n.DriveInSet].vals {
			e.ctx.Meter.RandPages++
			if err := consume(n.Index.Tree.SeekPrefix(val.Row{v})); err != nil {
				return err
			}
		}
	} else if err := consume(e.seek(n)); err != nil {
		return err
	}
	if !ridSort {
		return nil
	}
	e.ctx.Meter.CPUOps += int64(len(ridList))
	return e.fetch(n.Info.Heap, ridList, emitRow)
}

// seek opens an index scan's one probe: a range or prefix seek, one
// FixedRand, or with neither the whole leaf level.
func (e *executor) seek(n *plan.IndexScan) *btree.Iter {
	prefix := make(val.Row, len(n.EqVals))
	copy(prefix, n.EqVals)
	if n.Range == nil {
		if len(prefix) == 0 {
			return n.Index.Tree.Scan()
		}
		e.ctx.Meter.FixedRand++
		return n.Index.Tree.SeekPrefix(prefix)
	}
	lo, hi := prefix, prefix
	loIncl, hiIncl := true, true
	bound := append(prefix.Clone(), n.Range.Value)
	switch n.Range.Op {
	case ">":
		lo, loIncl = bound, false
	case ">=":
		lo = bound
	case "<":
		hi, hiIncl = bound, false
	case "<=":
		hi = bound
	}
	if len(prefix) == 0 {
		// Pure range: unbound side is nil.
		if n.Range.Op == ">" || n.Range.Op == ">=" {
			hi = nil
		} else {
			lo = nil
		}
	}
	e.ctx.Meter.FixedRand++
	return n.Index.Tree.SeekRange(lo, hi, loIncl, hiIncl)
}

func (e *executor) runViewScan(n *plan.ViewScan, out func(val.Row) error) error {
	flat := make(val.Row, e.p.Layout.Width)
	emit := func(viewRow val.Row) error {
		for i, off := range n.ColOffsets {
			if off >= 0 {
				flat[off] = viewRow[i]
			}
		}
		if !e.passes(flat, n.Filters, n.Ins) {
			return nil
		}
		return out(flat)
	}

	if n.Index == nil {
		return e.scan(n.View.Heap, emit)
	}
	ir, err := e.openIndex(n.Index)
	if err != nil {
		return err
	}
	defer ir.close()
	e.ctx.Meter.FixedRand++ // the view's own seek
	cur := n.View.Heap.NewCursor()
	it := n.Index.Tree.SeekPrefix(append(val.Row(nil), n.EqVals...))
	for {
		_, rid, ok, err := ir.next(it)
		if err != nil || !ok {
			return err
		}
		r, err := cur.Fetch(&e.ctx.Meter, storage.RowID(rid))
		if err != nil {
			return err
		}
		if err := emit(r); err != nil {
			return err
		}
	}
}

// hashTable is a hash join's build side: its rows' live values, chained
// by key in build order. A cross join has no keys: all its rows share
// one, empty key.
type hashTable struct {
	keys  *keyTable
	live  []int       // the flat offsets a build row keeps (liveIn(n.Build))
	vals  []val.Value // build row i's live values are vals[i*len(live) : (i+1)*len(live)]
	first []int       // key id → its first build row, plus one
	link  []int       // build row → the next row of its key, plus one
}

// row returns build row i's live values.
func (h *hashTable) row(i int) val.Row {
	w := len(h.live)
	return h.vals[i*w : (i+1)*w]
}

// position returns flat offset o's position in a build row's live values.
func (h *hashTable) position(o int) int {
	for i, l := range h.live {
		if l == o {
			return i
		}
	}
	panic(fmt.Sprintf("exec: offset %d is not live on the build side", o))
}

// buildHash runs n's build side into a hashTable.
func (e *executor) buildHash(n *plan.HashJoin) (*hashTable, error) {
	h := &hashTable{keys: &keyTable{width: len(n.BuildKeys), heads: map[uint64]int{}}, live: e.liveIn(n.Build)}
	// link holds each build row's key id until the rows are chained.
	err := e.runNode(n.Build, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		h.link = append(grow(h.link, 1), h.keys.insert(r, n.BuildKeys))
		h.vals = grow(h.vals, len(h.live))
		for _, o := range h.live {
			h.vals = append(h.vals, r[o])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Chain each key's rows in build order, so a probe meets its matches
	// in the order they were built.
	h.first = make([]int, len(h.keys.chain))
	for i := len(h.link) - 1; i >= 0; i-- {
		k := h.link[i]
		h.link[i], h.first[k] = h.first[k], i+1
	}
	return h, nil
}

func (e *executor) runHashJoin(n *plan.HashJoin, out func(val.Row) error) error {
	h, err := e.buildHash(n)
	if err != nil {
		return err
	}
	probeLive := e.liveIn(n.Probe)
	merged := make(val.Row, e.p.Layout.Width)
	var probeRows int64
	err = e.runNode(n.Probe, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		probeRows++
		if err := e.ctx.check(); err != nil {
			return err
		}
		k := h.keys.find(r, n.ProbeKeys)
		if k < 0 {
			return nil
		}
		for _, o := range probeLive {
			merged[o] = r[o]
		}
		for i := h.first[k] - 1; i >= 0; i = h.link[i] - 1 {
			for j, o := range h.live {
				merged[o] = h.vals[i*len(h.live)+j]
			}
			if len(n.BuildKeys) == 0 {
				e.ctx.Meter.CPUOps++ // cross-product work
			}
			if err := out(merged); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.spill(int64(len(h.link))*int64(n.BuildWidth), probeRows*int64(n.BuildWidth))
	return nil
}

func (e *executor) runIndexJoin(n *plan.IndexJoin, out func(val.Row) error) error {
	ir, err := e.openIndex(n.Index)
	if err != nil {
		return err
	}
	defer ir.close()
	cur := n.Info.Heap.NewCursor()
	base := e.p.Layout.Base[n.Tab]
	merged := make(val.Row, e.p.Layout.Width)
	key := make(val.Row, len(n.Binds))

	return e.runNode(n.Outer, func(outer val.Row) error {
		e.ctx.Meter.CPUOps += 2
		if err := e.ctx.check(); err != nil {
			return err
		}
		for i, b := range n.Binds {
			if b.Const != nil {
				key[i] = *b.Const
			} else {
				key[i] = outer[b.OuterOffset]
			}
		}
		e.ctx.Meter.RandPages++
		it := n.Index.Tree.SeekPrefix(key)
		for {
			k, rid, ok, err := ir.next(it)
			if err != nil || !ok {
				return err
			}
			copy(merged, outer)
			if n.Covering {
				for j, c := range n.Index.Cols {
					merged[base+c] = k[j]
				}
			} else {
				r, err := cur.Fetch(&e.ctx.Meter, storage.RowID(rid))
				if err != nil {
					return err
				}
				copy(merged[base:], r)
			}
			ok2 := true
			for _, pe := range n.PostEq {
				e.ctx.Meter.CPUOps++
				if !val.Equal(merged[pe.A], merged[pe.B]) {
					ok2 = false
					break
				}
			}
			if !ok2 || !e.passes(merged, n.Filters, n.Ins) {
				continue
			}
			if err := out(merged); err != nil {
				return err
			}
		}
	})
}

// aggSlot accumulates one aggregate of one group. Each kind uses only
// its own fields and leaves the rest zero: COUNT(*) and COUNT(col) use
// count, COUNT(DISTINCT) distinct, SUM and AVG count and sum, MIN min and
// MAX max (NULL, the zero Value, until a value arrives).
type aggSlot struct {
	count    int64
	sum      float64
	min, max val.Value
	distinct valueSet
}

// aggState is one group: its GROUP BY values and one slot per aggregate.
type aggState struct {
	groupVals val.Row
	slots     []aggSlot
}

// aggTable is a HashAgg's groups, numbered in first-seen order, with
// na slots each.
type aggTable struct {
	keys  keyTable
	na    int
	slots []aggSlot // group id's slots are slots[id*na : (id+1)*na]
}

// group returns the id of r's group at offs, adding the group if new.
func (t *aggTable) group(r val.Row, offs []int) int {
	id := t.keys.insert(r, offs)
	if len(t.slots) == id*t.na { // a new group; slots only grows, so its spare capacity is zero
		t.slots = grow(t.slots, t.na)[:len(t.slots)+t.na]
	}
	return id
}

// slotsOf returns group id's slots.
func (t *aggTable) slotsOf(id int) []aggSlot { return t.slots[id*t.na : (id+1)*t.na] }

// accumulateAgg runs the aggregate's input and accumulates group states
// without finishing them: runHashAgg finishes them at once, RunPartial
// hands them to MergePartials open. It returns the groups in first-seen
// order; an aggregate without GROUP BY has its one group even when no
// row arrives (COUNT 0, the other aggregates NULL). Over a keyed HashJoin whose aggregates are all counts it folds
// the join's chains instead of enumerating joined rows (foldJoin,
// DESIGN §6c); otherwise each input row updates its group's slots, and a
// row whose group and DISTINCT values were seen allocates nothing.
func (e *executor) accumulateAgg(n *plan.HashAgg) ([]aggState, error) {
	t := &aggTable{keys: keyTable{width: len(n.Groups), heads: map[uint64]int{}}, na: len(n.Aggs)}
	var err error
	if j, groupsOnBuild, ok := e.foldable(n); ok {
		err = e.foldJoin(n, j, groupsOnBuild, t)
	} else {
		err = e.runNode(n.Input, func(r val.Row) error {
			e.ctx.Meter.CPUOps++
			if err := e.ctx.check(); err != nil {
				return err
			}
			e.accumulate(t.slotsOf(t.group(r, n.Groups)), n.Aggs, r)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	if len(n.Groups) == 0 && len(t.keys.chain) == 0 {
		t.group(nil, nil) // no GROUP BY: one group, even over no input
	}

	ng, na, groups := len(n.Groups), t.na, make([]aggState, len(t.keys.chain))
	for id := range groups {
		groups[id] = aggState{groupVals: t.keys.vals[id*ng : (id+1)*ng : (id+1)*ng], slots: t.slots[id*na : (id+1)*na : (id+1)*na]}
	}
	e.spill(int64(len(groups))*int64(n.GroupWidth), 0)
	return groups, nil
}

// accumulate folds one input row into its group's slots, each aggregate
// updating only its own kind's fields.
func (e *executor) accumulate(st []aggSlot, aggs []plan.AggSpec, r val.Row) {
	for i, a := range aggs {
		s := &st[i]
		if a.Kind == sql.AggCountStar {
			s.count++
			continue
		}
		v := r[a.Offset]
		if v.IsNull() {
			continue
		}
		switch a.Kind {
		case sql.AggCountCol:
			s.count++
		case sql.AggCountDistinct:
			s.distinct.add(v)
			e.ctx.Meter.CPUOps++
		case sql.AggSum, sql.AggAvg:
			s.count++
			s.sum += v.AsFloat()
		case sql.AggMin:
			if s.min.IsNull() || val.Compare(v, s.min) < 0 {
				s.min = v
			}
		case sql.AggMax:
			if s.max.IsNull() || val.Compare(v, s.max) > 0 {
				s.max = v
			}
		}
	}
}

func (e *executor) runHashAgg(n *plan.HashAgg, out func(val.Row) error) error {
	groups, err := e.accumulateAgg(n)
	if err != nil {
		return err
	}
	rowOut := make(val.Row, len(n.Groups)+len(n.Aggs))
	for _, st := range groups {
		if err := out(finishGroup(rowOut, n, st)); err != nil {
			return err
		}
	}
	return nil
}

// finishGroup writes a group's [group values..., agg values...] into dst.
func finishGroup(dst val.Row, n *plan.HashAgg, st aggState) val.Row {
	copy(dst, st.groupVals)
	for i, a := range n.Aggs {
		dst[len(n.Groups)+i] = finishAgg(a.Kind, &st.slots[i])
	}
	return dst
}

// finishAgg produces the final value of one aggregate of a group.
func finishAgg(kind sql.AggKind, s *aggSlot) val.Value {
	switch kind {
	case sql.AggCountStar, sql.AggCountCol:
		return val.Int(s.count)
	case sql.AggCountDistinct:
		return val.Int(int64(s.distinct.len()))
	case sql.AggSum:
		if s.count == 0 {
			return val.Null()
		}
		return val.Float(s.sum)
	case sql.AggMin:
		return s.min
	case sql.AggMax:
		return s.max
	case sql.AggAvg:
		if s.count == 0 {
			return val.Null()
		}
		return val.Float(s.sum / float64(s.count))
	}
	return val.Null()
}

func (e *executor) runProject(n *plan.Project, out func(val.Row) error) error {
	proj := make(val.Row, len(n.Offsets))
	return e.runNode(n.Input, func(r val.Row) error {
		for i, o := range n.Offsets {
			proj[i] = r[o]
		}
		return out(proj)
	})
}

// mergeStream is one merge-join side: its index read in key order,
// stopping on the entries whose join-key value passes the side's
// key-level predicates, and the matched entries the join keeps.
type mergeStream struct {
	e    *executor
	side *plan.MergeSide
	read indexRead
	it   *btree.Iter

	key val.Row // the current passing entry, while ok
	rid int64
	ok  bool

	rids []int64     // the matched entries, run by run
	keys []val.Value // covering: their key columns, len(side.Index.Cols) per entry
	rows []val.Row   // not covering, once fetched: their heap rows
}

// openMerge opens one side of a merge join on its index's leaf level.
func (e *executor) openMerge(side *plan.MergeSide) (*mergeStream, error) {
	r, err := e.openIndex(side.Index)
	if err != nil {
		return nil, err
	}
	return &mergeStream{e: e, side: side, read: r, it: side.Index.Tree.Scan()}, nil
}

// next advances to the next passing entry.
func (s *mergeStream) next() error {
	for {
		k, rid, ok, err := s.read.next(s.it)
		if s.ok = ok; err != nil || !ok {
			return err
		}
		if v := k[0]; !v.IsNull() && s.passes(v) {
			s.key, s.rid = k, rid
			return nil
		}
	}
}

// passes tests a join-key value against the side's key-level predicates.
func (s *mergeStream) passes(v val.Value) bool {
	for _, p := range s.side.KeyPreds {
		s.e.ctx.Meter.CPUOps++
		if !sql.CompareOp(p.Op, v, p.Value) {
			return false
		}
	}
	for _, p := range s.side.KeyIns {
		s.e.ctx.Meter.CPUOps++
		if !s.e.sets[p.SetID].contains(v) {
			return false
		}
	}
	return true
}

// takeRun keeps the entries whose key is v, advancing past them.
func (s *mergeStream) takeRun(v val.Value) error {
	for s.ok && val.Equal(s.key[0], v) {
		s.rids = append(s.rids, s.rid)
		if s.side.Covering {
			s.keys = append(s.keys, s.key[:len(s.side.Index.Cols)]...)
		}
		if err := s.next(); err != nil {
			return err
		}
	}
	return nil
}

// fetch reads a non-covering side's kept heap rows in rid order. An
// index holds each rid once, so the kept rids are distinct.
func (s *mergeStream) fetch() error {
	if s.side.Covering {
		return nil
	}
	ids := make([]storage.RowID, len(s.rids))
	for i, rid := range s.rids {
		ids[i] = storage.RowID(rid)
	}
	slices.Sort(ids)
	s.e.ctx.Meter.CPUOps += int64(len(ids))
	fetched := make([]val.Row, 0, len(ids))
	if err := s.e.fetch(s.side.Info.Heap, ids, func(r val.Row) error {
		fetched = append(fetched, r)
		return nil
	}); err != nil {
		return err
	}
	s.rows = make([]val.Row, len(s.rids))
	for i, rid := range s.rids {
		j, _ := slices.BinarySearch(ids, storage.RowID(rid))
		s.rows[i] = fetched[j]
	}
	return nil
}

// fill writes kept entry i's columns into flat: from its key when
// covering, else from its heap row.
func (s *mergeStream) fill(flat val.Row, i int) {
	base := s.e.p.Layout.Base[s.side.Tab]
	if !s.side.Covering {
		copy(flat[base:], s.rows[i])
		return
	}
	w := len(s.side.Index.Cols)
	for j, c := range s.side.Index.Cols {
		flat[base+c] = s.keys[i*w+j]
	}
}

// runMergeJoin merges the two ordered, key-filtered index streams and
// keeps each equal-key run's entries once per side, billing the run's
// pairs — one CPUOps each and one check per left entry — as it goes.
// Each non-covered side's kept rows are then fetched rid-sorted, and the
// merged flat rows are emitted run by run, left-major. Covering sides
// carry their key columns and never touch the heap.
func (e *executor) runMergeJoin(n *plan.MergeJoin, out func(val.Row) error) error {
	ls, err := e.openMerge(&n.L)
	if err != nil {
		return err
	}
	defer ls.read.close()
	rs, err := e.openMerge(&n.R)
	if err != nil {
		return err
	}
	defer rs.read.close()
	if err := ls.next(); err != nil {
		return err
	}
	if err := rs.next(); err != nil {
		return err
	}

	// runEnds[i] is where run i's entries end on each side; each run
	// starts where the one before it ended.
	var runEnds [][2]int
	for ls.ok && rs.ok {
		c := val.Compare(ls.key[0], rs.key[0])
		switch {
		case c < 0:
			err = ls.next()
		case c > 0:
			err = rs.next()
		default:
			v, l0, r0 := ls.key[0], len(ls.rids), len(rs.rids)
			if err := ls.takeRun(v); err != nil {
				return err
			}
			if err := rs.takeRun(v); err != nil {
				return err
			}
			for range len(ls.rids) - l0 {
				e.ctx.Meter.CPUOps += int64(len(rs.rids) - r0)
				if err := e.ctx.check(); err != nil {
					return err
				}
			}
			runEnds = append(runEnds, [2]int{len(ls.rids), len(rs.rids)})
		}
		if err != nil {
			return err
		}
	}

	if err := ls.fetch(); err != nil {
		return err
	}
	if err := rs.fetch(); err != nil {
		return err
	}
	flat := make(val.Row, e.p.Layout.Width)
	var l0, r0 int
	for _, end := range runEnds {
		for i := l0; i < end[0]; i++ {
			for j := r0; j < end[1]; j++ {
				if err := e.ctx.check(); err != nil {
					return err
				}
				ls.fill(flat, i)
				rs.fill(flat, j)
				if !e.passes(flat, n.L.PostFilters, n.L.PostIns) ||
					!e.passes(flat, n.R.PostFilters, n.R.PostIns) {
					continue
				}
				if err := out(flat); err != nil {
					return err
				}
			}
		}
		l0, r0 = end[0], end[1]
	}
	return nil
}

package exec

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/cost"
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
	var innerErr error
	n.Info.Heap.Scan(&e.ctx.Meter, func(_ storage.RowID, r val.Row) bool {
		if err := e.ctx.check(); err != nil {
			innerErr = err
			return false
		}
		copy(flat[base:], r)
		if !e.passes(flat, n.Filters, n.Ins) {
			return true
		}
		if err := out(flat); err != nil {
			innerErr = err
			return false
		}
		return true
	})
	return innerErr
}

// emitIndexMatch fills the scan's scratch row for one index entry, either
// from the key columns (covering) or by fetching the heap row.
func (e *executor) emitIndexMatch(n *plan.IndexScan, flat val.Row, cur *storage.Cursor,
	key val.Row, rid int64, out func(val.Row) error) error {

	base := e.p.Layout.Base[n.Tab]
	if n.Covering {
		for j, c := range n.Index.Cols {
			flat[base+c] = key[j]
		}
	} else {
		r, err := cur.Fetch(&e.ctx.Meter, storage.RowID(rid))
		if err != nil {
			return err
		}
		copy(flat[base:], r)
	}
	if !e.passes(flat, n.Filters, n.Ins) {
		return nil
	}
	return out(flat)
}

func (e *executor) runIndexScan(n *plan.IndexScan, out func(val.Row) error) error {
	if n.Index.Tree == nil {
		return fmt.Errorf("exec: plan uses hypothetical index %s", n.Index.Def.Name())
	}
	cur := n.Info.Heap.NewCursor()
	e.ctx.Meter.FixedRand += int64(n.Index.Height)

	var entries int64
	defer func() {
		if epl := n.Index.EntriesPerLeaf; epl > 0 {
			e.ctx.Meter.SeqPages += entries / epl
		}
	}()

	// With RidSort the matching rids are gathered first and the heap is
	// read in page order afterwards (list prefetch); otherwise each match
	// is fetched (or emitted from the key, if covering) as it streams out
	// of the index.
	ridSort := n.RidSort && !n.Covering
	ridList := make([]storage.RowID, 0, 256)
	base := e.p.Layout.Base[n.Tab]
	flat := make(val.Row, e.p.Layout.Width)

	consume := func(it interface {
		Next() (val.Row, int64, bool)
	}) error {
		for {
			k, rid, ok := it.Next()
			if !ok {
				return nil
			}
			entries++
			e.ctx.Meter.Rows++
			if err := e.ctx.check(); err != nil {
				return err
			}
			if ridSort {
				ridList = append(ridList, storage.RowID(rid))
				continue
			}
			if err := e.emitIndexMatch(n, flat, cur, k, rid, out); err != nil {
				return err
			}
		}
	}
	flushRidList := func() error {
		if !ridSort {
			return nil
		}
		e.ctx.Meter.CPUOps += int64(len(ridList))
		var innerErr error
		err := n.Info.Heap.FetchMany(&e.ctx.Meter, ridList, func(_ storage.RowID, r val.Row) bool {
			if err := e.ctx.check(); err != nil {
				innerErr = err
				return false
			}
			copy(flat[base:], r)
			if !e.passes(flat, n.Filters, n.Ins) {
				return true
			}
			if err := out(flat); err != nil {
				innerErr = err
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		return innerErr
	}

	if n.DriveInSet >= 0 {
		// One probe per IN-set value.
		for _, v := range e.sets[n.DriveInSet].vals {
			e.ctx.Meter.RandPages++
			if err := consume(n.Index.Tree.SeekPrefix(val.Row{v})); err != nil {
				return err
			}
		}
		return flushRidList()
	}

	prefix := make(val.Row, len(n.EqVals))
	copy(prefix, n.EqVals)
	switch {
	case n.Range != nil:
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
		if err := consume(n.Index.Tree.SeekRange(lo, hi, loIncl, hiIncl)); err != nil {
			return err
		}
		return flushRidList()
	case len(prefix) > 0:
		e.ctx.Meter.FixedRand++
		if err := consume(n.Index.Tree.SeekPrefix(prefix)); err != nil {
			return err
		}
		return flushRidList()
	default:
		// Full covering leaf scan.
		if err := consume(n.Index.Tree.Scan()); err != nil {
			return err
		}
		return flushRidList()
	}
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

	if n.Index != nil {
		if n.Index.Tree == nil {
			return fmt.Errorf("exec: plan uses hypothetical view index %s", n.Index.Def.Name())
		}
		cur := n.View.Heap.NewCursor()
		e.ctx.Meter.FixedRand += int64(n.Index.Height) + 1
		it := n.Index.Tree.SeekPrefix(append(val.Row(nil), n.EqVals...))
		var entries int64
		for {
			_, rid, ok := it.Next()
			if !ok {
				break
			}
			entries++
			e.ctx.Meter.Rows++
			if err := e.ctx.check(); err != nil {
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
		if epl := n.Index.EntriesPerLeaf; epl > 0 {
			e.ctx.Meter.SeqPages += entries / epl
		}
		return nil
	}

	var innerErr error
	n.View.Heap.Scan(&e.ctx.Meter, func(_ storage.RowID, r val.Row) bool {
		if err := e.ctx.check(); err != nil {
			innerErr = err
			return false
		}
		if err := emit(r); err != nil {
			innerErr = err
			return false
		}
		return true
	})
	return innerErr
}

func (e *executor) runHashJoin(n *plan.HashJoin, out func(val.Row) error) error {
	buildLive, probeLive := e.liveIn(n.Build), e.liveIn(n.Probe)
	w := len(buildLive)

	// Build phase: the table keeps each input row's live values. A cross
	// join has no keys: all its rows share one, empty key.
	keys := &keyTable{width: len(n.BuildKeys), heads: map[uint64]int{}}
	var link []int       // build row → its key id, then → the next row of that key, plus one
	var vals []val.Value // build row i's live values are vals[i*w : (i+1)*w]
	err := e.runNode(n.Build, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		link = append(grow(link, 1), keys.insert(r, n.BuildKeys))
		vals = grow(vals, w)
		for _, o := range buildLive {
			vals = append(vals, r[o])
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Chain each key's rows in build order, so a probe emits its matches
	// in the order they were built; first[k] is key k's first row plus one.
	first := make([]int, len(keys.chain))
	for i := len(link) - 1; i >= 0; i-- {
		k := link[i]
		link[i], first[k] = first[k], i+1
	}

	// Probe phase.
	merged := make(val.Row, e.p.Layout.Width)
	var probeRows int64
	err = e.runNode(n.Probe, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		probeRows++
		if err := e.ctx.check(); err != nil {
			return err
		}
		k := keys.find(r, n.ProbeKeys)
		if k < 0 {
			return nil
		}
		for _, o := range probeLive {
			merged[o] = r[o]
		}
		for i := first[k] - 1; i >= 0; i = link[i] - 1 {
			for j, o := range buildLive {
				merged[o] = vals[i*w+j]
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

	// Spill accounting, mirroring the optimizer's rule with actual counts.
	buildBytes := int64(len(link)) * int64(n.BuildWidth)
	if float64(buildBytes)*scaleOf(e.ctx.Model) > float64(memOf(e)) {
		probeBytes := probeRows * int64(n.BuildWidth)
		pg := cost.PagesForBytes(buildBytes) + cost.PagesForBytes(probeBytes)
		e.ctx.Meter.WritePage += pg
		e.ctx.Meter.SeqPages += pg
	}
	return nil
}

func (e *executor) runIndexJoin(n *plan.IndexJoin, out func(val.Row) error) error {
	if n.Index.Tree == nil {
		return fmt.Errorf("exec: plan uses hypothetical index %s", n.Index.Def.Name())
	}
	cur := n.Info.Heap.NewCursor()
	e.ctx.Meter.FixedRand += int64(n.Index.Height)
	base := e.p.Layout.Base[n.Tab]
	merged := make(val.Row, e.p.Layout.Width)
	key := make(val.Row, len(n.Binds))

	var entries int64
	err := e.runNode(n.Outer, func(outer val.Row) error {
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
			k, rid, ok := it.Next()
			if !ok {
				return nil
			}
			entries++
			e.ctx.Meter.Rows++
			if err := e.ctx.check(); err != nil {
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
	if epl := n.Index.EntriesPerLeaf; epl > 0 {
		e.ctx.Meter.SeqPages += entries / epl
	}
	return err
}

// aggSlot accumulates one aggregate of one group.
type aggSlot struct {
	count    int64
	sum      float64
	min, max val.Value
	distinct valueSet // COUNT(DISTINCT) only
}

// aggState is one group: its GROUP BY values and one slot per aggregate.
type aggState struct {
	groupVals val.Row
	slots     []aggSlot
}

// accumulateAgg runs the aggregate's input and accumulates group states
// without finishing them: runHashAgg finishes them at once, RunPartial
// hands them to MergePartials open. It returns the groups in first-seen
// order; a tuple whose group and DISTINCT value were seen allocates nothing.
func (e *executor) accumulateAgg(n *plan.HashAgg) ([]aggState, error) {
	keys := &keyTable{width: len(n.Groups), heads: map[uint64]int{}}
	na := len(n.Aggs)
	var slots []aggSlot // group id's slots are slots[id*na : (id+1)*na]
	err := e.runNode(n.Input, func(r val.Row) error {
		e.ctx.Meter.CPUOps++
		if err := e.ctx.check(); err != nil {
			return err
		}
		id := keys.insert(r, n.Groups)
		if len(slots) == id*na { // a new group; slots only grows, so its spare capacity is zero
			slots = grow(slots, na)[:len(slots)+na]
		}
		st := slots[id*na : (id+1)*na]
		for i, a := range n.Aggs {
			s := &st[i]
			if a.Kind == sql.AggCountStar {
				s.count++
				continue
			}
			v := r[a.Offset]
			if v.IsNull() {
				continue
			}
			s.count++
			s.sum += v.AsFloat()
			if s.count == 1 || val.Compare(v, s.min) < 0 {
				s.min = v
			}
			if s.count == 1 || val.Compare(v, s.max) > 0 {
				s.max = v
			}
			if a.Kind == sql.AggCountDistinct {
				s.distinct.add(v)
				e.ctx.Meter.CPUOps++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ng, groups := len(n.Groups), make([]aggState, len(keys.chain))
	for id := range groups {
		groups[id] = aggState{groupVals: keys.vals[id*ng : (id+1)*ng : (id+1)*ng], slots: slots[id*na : (id+1)*na : (id+1)*na]}
	}
	// Spill accounting over the group count.
	bytes := int64(len(groups)) * int64(n.GroupWidth)
	if n.GroupWidth > 0 && float64(bytes)*scaleOf(e.ctx.Model) > float64(memOf(e)) {
		pg := cost.PagesForBytes(bytes)
		e.ctx.Meter.WritePage += pg
		e.ctx.Meter.SeqPages += pg
	}
	return groups, nil
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
		return val.Float(s.sum)
	case sql.AggMin:
		if s.count == 0 {
			return val.Null()
		}
		return s.min
	case sql.AggMax:
		if s.count == 0 {
			return val.Null()
		}
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

// keyStream iterates one merge-join side's index leaves, yielding entries
// whose join-key value passes the side's key-level predicates.
type keyStream struct {
	e    *executor
	side *plan.MergeSide
	it   *btree.Iter

	key val.Row
	rid int64
	ok  bool
}

func (e *executor) newKeyStream(side *plan.MergeSide) *keyStream {
	e.ctx.Meter.FixedRand += int64(side.Index.Height)
	return &keyStream{e: e, side: side, it: side.Index.Tree.Scan()}
}

// next advances to the next passing entry.
func (s *keyStream) next() error {
	for {
		k, rid, ok := s.it.Next()
		if !ok {
			s.ok = false
			return nil
		}
		s.e.ctx.Meter.Rows++
		if err := s.e.ctx.check(); err != nil {
			return err
		}
		v := k[0]
		if v.IsNull() {
			continue
		}
		pass := true
		for _, p := range s.side.KeyPreds {
			s.e.ctx.Meter.CPUOps++
			if !sql.CompareOp(p.Op, v, p.Value) {
				pass = false
				break
			}
		}
		if pass {
			for _, p := range s.side.KeyIns {
				s.e.ctx.Meter.CPUOps++
				if !s.e.sets[p.SetID].contains(v) {
					pass = false
					break
				}
			}
		}
		if !pass {
			continue
		}
		s.key, s.rid, s.ok = k, rid, true
		return nil
	}
}

// close bills the leaf pages consumed.
func (s *keyStream) close() {
	if epl := s.side.Index.EntriesPerLeaf; epl > 0 {
		s.e.ctx.Meter.SeqPages += s.it.Scanned() / epl
	}
}

// runMergeJoin merges the two ordered, key-filtered index streams,
// collects the surviving (left, right) pairs per equal key run, fetches
// each non-covered side's surviving rows rid-sorted, and emits the merged
// flat rows. Covering sides carry their key columns through the pair and
// never touch the heap.
func (e *executor) runMergeJoin(n *plan.MergeJoin, out func(val.Row) error) error {
	ls := e.newKeyStream(&n.L)
	rs := e.newKeyStream(&n.R)
	defer ls.close()
	defer rs.close()
	if err := ls.next(); err != nil {
		return err
	}
	if err := rs.next(); err != nil {
		return err
	}

	type entry struct {
		rid int64
		key val.Row // retained only for covering sides
	}
	type pairEnt struct {
		l, r entry
	}
	// Duplicate runs are usually short; starting capacity amortizes the
	// per-key growth across the whole merge.
	pairs := make([]pairEnt, 0, 64)
	lRun := make([]entry, 0, 16)
	rRun := make([]entry, 0, 16)
	keep := func(side *plan.MergeSide, key val.Row, rid int64) entry {
		if side.Covering {
			return entry{rid: rid, key: key.Clone()}
		}
		return entry{rid: rid}
	}
	for ls.ok && rs.ok {
		c := val.Compare(ls.key[0], rs.key[0])
		switch {
		case c < 0:
			if err := ls.next(); err != nil {
				return err
			}
		case c > 0:
			if err := rs.next(); err != nil {
				return err
			}
		default:
			v := ls.key[0]
			lRun = lRun[:0]
			for ls.ok && val.Equal(ls.key[0], v) {
				lRun = append(lRun, keep(&n.L, ls.key, ls.rid))
				if err := ls.next(); err != nil {
					return err
				}
			}
			rRun = rRun[:0]
			for rs.ok && val.Equal(rs.key[0], v) {
				rRun = append(rRun, keep(&n.R, rs.key, rs.rid))
				if err := rs.next(); err != nil {
					return err
				}
			}
			for _, l := range lRun {
				for _, r := range rRun {
					e.ctx.Meter.CPUOps++
					pairs = append(pairs, pairEnt{l, r})
				}
				if err := e.ctx.check(); err != nil {
					return err
				}
			}
		}
	}

	// Materialize each non-covered side's surviving rows, rid-sorted.
	fetchSide := func(side *plan.MergeSide, ridOf func(pairEnt) int64) (map[int64]val.Row, error) {
		if side.Covering {
			return nil, nil
		}
		uniq := make(map[int64]bool, len(pairs))
		for _, p := range pairs {
			uniq[ridOf(p)] = true
		}
		ids := make([]storage.RowID, 0, len(uniq))
		for id := range uniq {
			ids = append(ids, storage.RowID(id))
		}
		e.ctx.Meter.CPUOps += int64(len(ids))
		rows := make(map[int64]val.Row, len(ids))
		var innerErr error
		err := side.Info.Heap.FetchMany(&e.ctx.Meter, ids, func(id storage.RowID, r val.Row) bool {
			if err := e.ctx.check(); err != nil {
				innerErr = err
				return false
			}
			rows[int64(id)] = r
			return true
		})
		if err != nil {
			return nil, err
		}
		return rows, innerErr
	}
	lRows, err := fetchSide(&n.L, func(p pairEnt) int64 { return p.l.rid })
	if err != nil {
		return err
	}
	rRows, err := fetchSide(&n.R, func(p pairEnt) int64 { return p.r.rid })
	if err != nil {
		return err
	}

	fill := func(flat val.Row, side *plan.MergeSide, rows map[int64]val.Row, ent entry) {
		base := e.p.Layout.Base[side.Tab]
		if side.Covering {
			for j, c := range side.Index.Cols {
				flat[base+c] = ent.key[j]
			}
			return
		}
		copy(flat[base:], rows[ent.rid])
	}
	flat := make(val.Row, e.p.Layout.Width)
	for _, p := range pairs {
		if err := e.ctx.check(); err != nil {
			return err
		}
		fill(flat, &n.L, lRows, p.l)
		fill(flat, &n.R, rRows, p.r)
		if !e.passes(flat, n.L.PostFilters, n.L.PostIns) ||
			!e.passes(flat, n.R.PostFilters, n.R.PostIns) {
			continue
		}
		if err := out(flat); err != nil {
			return err
		}
	}
	return nil
}

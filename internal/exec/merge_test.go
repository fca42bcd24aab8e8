package exec

import (
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// mergeIndex indexes info's (k, g) as a merge-join side reads it, epl
// entries to a leaf page (0: leaf pages are not billed).
func mergeIndex(t testing.TB, info *plan.TableInfo, epl int64) *plan.IndexInfo {
	t.Helper()
	tree := btree.New(false)
	info.Heap.Scan(nil, func(id storage.RowID, r val.Row) bool {
		if err := tree.Insert(val.Row{r[0], r[1]}, int64(id)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	return &plan.IndexInfo{
		Def: conf.IndexDef{Table: info.Table.Name, Columns: []string{"k", "g"}}, Cols: []int{0, 1},
		Tree: tree, Height: tree.Height(), EntriesPerLeaf: epl,
	}
}

// mergeJoin plans b ⋈ p on k as a merge join over (k, g) indexes, the
// join itself the root. shape draws each side's covering flag, a key
// predicate, a post-filter (on g when covering, else on x) and the leaf
// size; pred draws the predicates' operator and value.
func (w *foldWorld) mergeJoin(t testing.TB, shape uint16, pred byte) (*plan.Plan, *plan.MergeJoin) {
	t.Helper()
	stmt, err := sql.ParseSelect(`SELECT b.k, b.g, b.x, p.k, p.g, p.x FROM b, p WHERE b.k = p.k`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(w.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	l := plan.NewLayout(q)
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	epl := []int64{1, 2, 7, 0}[shape>>6&3]
	side := func(tab int) plan.MergeSide {
		s := plan.MergeSide{Tab: tab, Info: w.infos[tab], Index: mergeIndex(t, w.infos[tab], epl), Covering: shape>>tab&1 == 1}
		if shape>>(2+tab)&1 == 1 {
			s.KeyPreds = []plan.KeyPred{{Op: ops[int(pred)%len(ops)], Value: foldValue(pred >> 3)}}
		}
		if shape>>(4+tab)&1 == 1 {
			col := 2
			if s.Covering {
				col = 1
			}
			s.PostFilters = []plan.Filter{{Offset: l.Offset(sql.QCol{Tab: tab, Col: col}), Op: ops[int(pred>>1)%len(ops)], Value: foldValue(pred)}}
		}
		return s
	}
	j := &plan.MergeJoin{L: side(0), R: side(1)}
	return &plan.Plan{Query: q, Layout: l, Root: j}, j
}

// FuzzMergeJoin draws duplicate-heavy tables — few keys, NULLs and mixed
// kinds, b's rows repeated up to 64 times and p's up to 4, so that runs
// outgrow the limit's check interval — and a merge join over them with
// covering and fetching sides, key predicates and post-filters, and holds
// runMergeJoin to refMergeJoin, the pairs-collecting join it replaced: the
// rows in emission order, the meter field by field and the error, at no
// limit and at a sweep of limits. `make fuzz` runs it.
func FuzzMergeJoin(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 2, 32, 9, 20, 64, 33, 44}, []byte{0, 5, 6, 32, 12, 13, 96, 7, 0}, uint8(0), uint8(0))
	f.Add(uint16(0x3f), []byte("left rows of mixed kinds"), []byte("right rows"), uint8(255), uint8(17))
	f.Add(uint16(0x81), []byte("all of these rows share the null key....."), []byte("and so do these right rows, ×8"), uint8(255), uint8(200))
	f.Add(uint16(0x46), []byte{1, 2, 3, 1, 4, 5, 1, 6, 7, 9, 8, 9}, []byte{1, 9, 10, 1, 11, 12}, uint8(97), uint8(42))
	f.Add(uint16(0xda), []byte{1, 1, 1, 33, 2, 2, 65, 3, 3, 97, 4, 4}, []byte{1, 5, 5, 33, 6, 6, 65, 7, 7}, uint8(140), uint8(90))
	f.Add(uint16(0x7f00), []byte("                                                "), []byte("  ,  ,  ,  ,"), uint8(255), uint8(0))
	f.Add(uint16(0xc030), []byte("  a  b  c  d  e  f  g  h  i  j  k  l  m  n  o  p"), []byte(" q  r  s  t"), uint8(191), uint8(12))
	m := cost.Desktop2005()
	f.Fuzz(func(t *testing.T, shape uint16, left, right []byte, reps, pred uint8) {
		w := newFoldWorld(t, repeat(foldRows(left), 1+int(reps%64)), repeat(foldRows(right), 1+int(reps/64)))
		p, j := w.mergeJoin(t, shape, pred)
		run := func(merge func(*executor, *plan.MergeJoin, func(val.Row) error) error, limit float64) (string, float64) {
			ctx := &Ctx{Model: m, LimitSeconds: limit}
			var rows []string
			err := merge(newExecutor(p, ctx), j, func(r val.Row) error {
				rows = append(rows, r.Key())
				return nil
			})
			return fmt.Sprintf("error %v, meter %+v, rows %q", err, ctx.Meter, rows), ctx.Seconds()
		}
		_, full := run((*executor).refMergeJoin, 0)
		limits := []float64{0, full * (1 - 1e-9), full * float64(shape>>8) / 255}
		for k := 1; k < 16; k++ {
			limits = append(limits, full*float64(k)/16, full/float64(int(16)<<k))
		}
		for _, limit := range limits {
			want, _ := run((*executor).refMergeJoin, limit)
			if got, _ := run((*executor).runMergeJoin, limit); got != want {
				t.Fatalf("limit %v:\ngot  %s\nwant %s", limit, got, want)
			}
		}
	})
}

// refMergeJoin and its keyStream are the merge join as it was when it
// collected every matched (left, right) pair before emitting a row.

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

// refMergeJoin merges the two ordered, key-filtered index streams,
// collects the surviving (left, right) pairs per equal key run, fetches
// each non-covered side's surviving rows rid-sorted, and emits the merged
// flat rows. Covering sides carry their key columns through the pair and
// never touch the heap.
func (e *executor) refMergeJoin(n *plan.MergeJoin, out func(val.Row) error) error {
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

package optimizer

import (
	"math"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
)

// mergeSide is what one input of a merge join costs before its index is
// chosen. Its predicates split into key-level (on the join column) and
// post (everything else) by column alone, so every index pair shares the
// split.
type mergeSide struct {
	t, joinCol int
	info       *plan.TableInfo
	rows       float64 // the table's rows
	filtered   float64 // rows that pass the key-level predicates
	postSel    float64
	nKey       int // key-level predicates, selections and IN sets together
	nPost      int // post predicates, likewise
}

func (s *search) mergeSideOf(c sql.QCol) mergeSide {
	m := mergeSide{t: c.Tab, joinCol: c.Col, info: s.infos[c.Tab], postSel: 1}
	keySel := 1.0
	for _, p := range s.sels[c.Tab] {
		if p.Col.Col == c.Col {
			keySel *= s.selOf(m.info, p)
			m.nKey++
		} else {
			m.postSel *= s.selOf(m.info, p)
			m.nPost++
		}
	}
	for _, ii := range s.ins[c.Tab] {
		if s.q.Ins[ii].Col.Col == c.Col {
			keySel *= s.inSel[ii]
			m.nKey++
		} else {
			m.postSel *= s.inSel[ii]
			m.nPost++
		}
	}
	m.rows = float64(m.info.Stats.Rows)
	m.filtered = m.rows * keySel
	return m
}

// mergeJoinCands prices merge joins for a single equality join between the
// leaf tables of m1 and m2, one per pair of indexes led by the join
// columns, and returns the cheapest that costs less than bound. The join
// runs entirely over the ordered index leaves; key-level predicates
// (constants and IN sets on the join column) are applied before any heap
// fetch, and non-covered sides fetch only the surviving rows, rid-sorted.
func (s *search) mergeJoinCands(m1, m2 uint32, lc, rc sql.QCol, bound float64) (best cand, ok bool) {
	t1, t2 := trailingTable(m1), trailingTable(m2)
	// joinPredsBetween may orient (lc, rc) either way; normalize to t1/t2.
	if lc.Tab != t1 {
		lc, rc = rc, lc
	}
	if lc.Tab != t1 || rc.Tab != t2 {
		return cand{}, false
	}
	var a, b mergeSide // priced at the first index pair
	var ndv float64
	for _, ix1 := range s.ixs[t1] {
		if ix1.Cols[0] != lc.Col {
			continue
		}
		for _, ix2 := range s.ixs[t2] {
			if ix2.Cols[0] != rc.Col {
				continue
			}
			if s.opts.HypoNoMergeJoin && !s.opts.HypoIdeal &&
				(ix1.Hypothetical || ix2.Hypothetical) {
				continue
			}
			if a.info == nil {
				a, b = s.mergeSideOf(lc), s.mergeSideOf(rc)
				ndv = math.Max(s.joinKeyNDV([]sql.QCol{lc}), s.joinKeyNDV([]sql.QCol{rc}))
			}
			if est, won := s.mergeJoinEst(&a, &b, ix1, ix2, ndv, bound); won {
				best = cand{est: est, ch: choice{kind: mergeJoin, left: m1, right: m2, ix: ix1, ix2: ix2}}
				ok, bound = true, est.Seconds
			}
		}
	}
	return best, ok
}

func (s *search) mergeJoinEst(a, b *mergeSide, ix1, ix2 *plan.IndexInfo, ndv, bound float64) (plan.Est, bool) {
	// What-if conservatism: derived statistics cannot promise tight key
	// runs, so hypothetical merge joins are assumed to pair up more rows.
	hypo := (ix1.Hypothetical || ix2.Hypothetical) && !s.opts.HypoIdeal
	pairs := a.filtered * b.filtered / math.Max(ndv, 1)
	if hypo {
		pairs *= s.opts.hypoPenalty()
		if pairs > a.filtered*b.filtered {
			pairs = a.filtered * b.filtered
		}
	}
	est := plan.Est{Rows: pairs * a.postSel * b.postSel}

	// Leaf scans of both indexes.
	est.Meter.FixedRand = int64(ix1.Height + ix2.Height)
	est.Meter.SeqPages = ix1.LeafPages + ix2.LeafPages
	est.Meter.Rows = a.info.Stats.Rows + b.info.Stats.Rows
	est.Meter.CPUOps = int64(a.rows)*int64(1+a.nKey) + int64(b.rows)*int64(1+b.nKey)

	// Fetches of surviving rows, rid-sorted, per non-covered side.
	if !s.covers(a.t, ix1) {
		a.billFetch(&est.Meter, pairs, hypo)
	}
	if !s.covers(b.t, ix2) {
		b.billFetch(&est.Meter, pairs, hypo)
	}
	// Pair assembly and post-predicate work.
	est.Meter.CPUOps += ceilI(pairs) * int64(1+a.nPost+b.nPost)
	est.Seconds = s.phys.Model.Seconds(&est.Meter)
	return est, est.Seconds < bound
}

// buildMergeJoin builds both leaf sides. The split's one join predicate,
// oriented left to right, names the join columns.
func (s *search) buildMergeJoin(ch choice, est plan.Est) plan.Node {
	lcols, rcols := s.joinPredsBetween(ch.left, ch.right)
	a, b := s.mergeSideOf(lcols[0]), s.mergeSideOf(rcols[0])
	return &plan.MergeJoin{L: s.buildMergeSide(&a, ch.ix), R: s.buildMergeSide(&b, ch.ix2), Est: est}
}

// billFetch bills the side's rid-sorted heap fetches of the rows that pass
// its key-level predicates and pair up.
func (m *mergeSide) billFetch(meter *cost.Meter, pairs float64, hypo bool) {
	fetch := math.Min(pairs, m.filtered)
	pages := float64(m.info.Heap.Pages())
	touched := cardenas(fetch, pages)
	if hypo {
		touched = math.Min(fetch, pages)
	}
	meter.SeqPages += ceilI(touched)
	meter.CPUOps += ceilI(fetch * math.Log2(math.Max(fetch, 2)))
}

// buildMergeSide builds a winning merge join's input: the side's
// predicates on the join column apply to keys, the others after the row
// is formed.
func (s *search) buildMergeSide(m *mergeSide, ix *plan.IndexInfo) plan.MergeSide {
	side := plan.MergeSide{Tab: m.t, Info: m.info, Index: ix, Covering: s.covers(m.t, ix)}
	for _, p := range s.sels[m.t] {
		if p.Col.Col == m.joinCol {
			side.KeyPreds = append(side.KeyPreds, plan.KeyPred{Op: p.Op, Value: p.Value})
		} else {
			side.PostFilters = append(side.PostFilters, plan.Filter{
				Offset: s.layout.Base[m.t] + p.Col.Col, Op: p.Op, Value: p.Value,
			})
		}
	}
	for _, ii := range s.ins[m.t] {
		p := s.q.Ins[ii]
		if p.Col.Col == m.joinCol {
			side.KeyIns = append(side.KeyIns, plan.KeyIn{SetID: ii})
		} else {
			side.PostIns = append(side.PostIns, plan.InFilter{
				Offset: s.layout.Offset(p.Col), SetID: ii,
			})
		}
	}
	return side
}

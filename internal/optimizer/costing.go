package optimizer

import (
	"math"
	"slices"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// cardenas estimates the number of distinct pages touched by m random row
// fetches into a relation of p pages (Cardenas' approximation).
func cardenas(m, p float64) float64 {
	if p <= 0 {
		return 0
	}
	return p * (1 - math.Exp(-m/p))
}

// selOf returns the estimated selectivity of one predicate on the table.
func (s *search) selOf(info *plan.TableInfo, p sql.SelPred) float64 {
	sel := info.Stats.Selectivity(p.Col.Col, p.Op, p.Value)
	if sel <= 0 {
		sel = 0.5 / math.Max(1, float64(info.Stats.Rows))
	}
	return sel
}

// rowWidthOf returns the modeled byte width of the needed columns of the
// tables in the mask (what a real engine would carry after projection).
func (s *search) rowWidthOf(mask uint32) int {
	w := 20
	for t := range s.q.Tables {
		if mask&(1<<uint(t)) != 0 {
			w += 24 * len(s.needed[t])
		}
	}
	return w
}

// indexMatchRows estimates the rows matched by binding the first k key
// columns of an index, applying the what-if penalty for hypothetical
// indexes.
func (s *search) indexMatchRows(info *plan.TableInfo, ix *plan.IndexInfo, k int, probes float64) float64 {
	rows := float64(info.Stats.Rows)
	if k <= 0 || rows == 0 {
		return rows * probes
	}
	ndv := float64(ix.KeyNDV[k-1])
	if ndv < 1 {
		ndv = 1
	}
	m := rows / ndv * probes
	if ix.Hypothetical && !s.opts.HypoIdeal {
		m *= s.opts.hypoPenalty()
	}
	if m > rows {
		m = rows
	}
	return m
}

// indexAccessMeter bills the index traversal, leaf scan and (unless the
// index covers the query) the heap fetches for an index access producing
// totalMatch rows over the given number of probes. scaledProbes says
// whether the probe count grows with data volume (probes driven by outer
// rows or IN-set values) or is a per-query constant (a lookup bound by
// literal predicates).
//
// For non-covering access the cheaper of two fetch strategies is chosen
// (the returned bool reports the choice): per-row random fetches, or
// rid-sort / list-prefetch — sort the matching rids and read the touched
// heap pages in storage order. Rid-sort is what makes single-column
// indexes effective at percent-level selectivities on 2005 disks, and is
// only available when allowRidSort is set (pipelined index joins fetch
// row by row).
func (s *search) indexAccessMeter(info *plan.TableInfo, ix *plan.IndexInfo, probes, totalMatch float64, covering, scaledProbes, allowRidSort bool) (cost.Meter, bool) {
	var m cost.Meter
	m.FixedRand = int64(ix.Height)
	if scaledProbes {
		m.RandPages = ceilI(probes)
	} else {
		m.FixedRand += ceilI(probes)
	}
	epl := float64(ix.EntriesPerLeaf)
	if epl < 1 {
		epl = 1
	}
	m.SeqPages = ceilI(totalMatch / epl)
	m.Rows = ceilI(totalMatch)
	if covering {
		return m, false
	}
	pages := float64(info.Heap.Pages())
	if pages == 0 {
		pages = float64(info.Stats.Pages)
	}
	fetch := cardenas(totalMatch, pages)
	touched := fetch
	if ix.Hypothetical && !s.opts.HypoIdeal {
		// Derived what-if statistics cannot credit page locality: assume
		// every fetched row costs its own page.
		fetch = totalMatch
		touched = math.Min(totalMatch, pages)
	}
	sortOps := totalMatch * math.Log2(math.Max(totalMatch, 2))
	randSec := fetch * s.phys.Model.RandPageSec
	ridSec := touched*s.phys.Model.SeqPageSec + sortOps*s.phys.Model.CPUOpSec
	if allowRidSort && ridSec < randSec {
		m.SeqPages += ceilI(touched)
		m.CPUOps += ceilI(sortOps)
		return m, true
	}
	m.RandPages += ceilI(fetch)
	return m, false
}

// covers reports whether the index key columns contain every column of
// the table the query needs.
func (s *search) covers(t int, ix *plan.IndexInfo) bool {
	if s.opts.NoIndexOnly {
		return false
	}
	for _, c := range s.needed[t] {
		if !slices.Contains(ix.Cols, c) {
			return false
		}
	}
	return true
}

// bestAccessPath returns the cheapest single-table access for table
// ordinal t: sequential scan, index scan on a constant prefix/range, a
// covering full-index scan, or an IN-set-driven index probe.
func (s *search) bestAccessPath(t int) (cand, error) {
	info := s.infos[t]
	if info == nil {
		return cand{}, errNoTable(s.q.Tables[t].Table.Name)
	}
	rows := float64(info.Stats.Rows)
	sels := s.sels[t]
	ins := s.ins[t]

	filterSel := 1.0
	for _, p := range sels {
		filterSel *= s.selOf(info, p)
	}
	inSelAll := 1.0
	for _, ii := range ins {
		inSelAll *= s.inSel[ii]
	}

	// Sequential scan baseline, built only if no index access beats it.
	best := cand{est: plan.Est{Rows: rows * filterSel * inSelAll}}
	best.est.Meter.SeqPages = info.Heap.Pages()
	best.est.Meter.Rows = info.Stats.Rows
	best.est.Meter.CPUOps = info.Stats.Rows * int64(len(sels)+len(ins))
	best.est.Seconds = s.phys.Model.Seconds(&best.est.Meter)

	for _, ix := range s.ixs[t] {
		if c, ok := s.indexScanCand(t, ix, best.est.Seconds); ok {
			best = c
		}
		if c, ok := s.inDrivenCands(t, ix, best.est.Seconds); ok {
			best = c
		}
	}
	if best.node == nil {
		best.node = &plan.SeqScan{
			Tab: t, Info: info,
			Filters: s.filters(t, nil, len(sels)), Ins: s.inFilters(t, -1), Est: best.est,
		}
	}
	return best, nil
}

type noTableError string

func errNoTable(name string) error { return noTableError(name) }
func (e noTableError) Error() string {
	return "optimizer: table " + string(e) + " has no physical storage"
}

// filters builds the pushed-down filters of the n selections on table t
// that used does not mark (a nil used marks none).
func (s *search) filters(t int, used []bool, n int) []plan.Filter {
	if n == 0 {
		return nil
	}
	out := make([]plan.Filter, 0, n)
	for i, p := range s.sels[t] {
		if used == nil || !used[i] {
			out = append(out, plan.Filter{Offset: s.layout.Base[t] + p.Col.Col, Op: p.Op, Value: p.Value})
		}
	}
	return out
}

// inFilters builds the IN filters of table t, leaving out set skip (-1
// leaves out none).
func (s *search) inFilters(t, skip int) []plan.InFilter {
	var out []plan.InFilter
	for _, ii := range s.ins[t] {
		if ii != skip {
			out = append(out, plan.InFilter{Offset: s.layout.Offset(s.q.Ins[ii].Col), SetID: ii})
		}
	}
	return out
}

// indexScanCand prices scanning table t through an index bound by
// constant predicates, and builds the scan only if it costs less than
// bound.
func (s *search) indexScanCand(t int, ix *plan.IndexInfo, bound float64) (cand, bool) {
	info := s.infos[t]
	sels, ins := s.sels[t], s.ins[t]
	used := s.usedSel[:len(sels)]
	clear(used)
	eq := s.binds[:0] // the selections bound to the key prefix, in key order
	for _, col := range ix.Cols {
		found := -1
		for i, p := range sels {
			if !used[i] && p.Col.Col == col && p.Op == "=" {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		used[found] = true
		eq = append(eq, found)
	}
	s.binds = eq
	k := len(eq)
	rng := -1
	rangeSel := 1.0
	if k < len(ix.Cols) {
		for i, p := range sels {
			if used[i] || p.Col.Col != ix.Cols[k] {
				continue
			}
			if p.Op == "<" || p.Op == "<=" || p.Op == ">" || p.Op == ">=" {
				used[i] = true
				rng = i
				rangeSel = info.Stats.RangeSelectivity(p.Col.Col, p.Op, p.Value)
				break
			}
		}
	}
	covering := s.covers(t, ix)
	if k == 0 && rng < 0 && !covering {
		return cand{}, false
	}
	// Hypothetical indexes cannot be executed; they may only appear in
	// what-if estimation calls, which never execute the plan, so the
	// candidate is still valid. Actual execution requires Tree != nil
	// (guaranteed because engines never run plans from what-if calls).
	match := s.indexMatchRows(info, ix, k, 1) * rangeSel
	if k == 0 && rng < 0 {
		match = float64(info.Stats.Rows) // full covering leaf scan
	}
	// Residual predicate columns are always evaluable: they are "needed"
	// columns, and covering indexes contain every needed column by
	// definition of covers().
	resSel, nRes := 1.0, 0
	for i, p := range sels {
		if !used[i] {
			resSel *= s.selOf(info, p)
			nRes++
		}
	}
	inSelAll := 1.0
	for _, ii := range ins {
		inSelAll *= s.inSel[ii]
	}
	est := plan.Est{Rows: match * resSel * inSelAll}
	var ridSort bool
	est.Meter, ridSort = s.indexAccessMeter(info, ix, 1, match, covering, false, true)
	est.Meter.CPUOps += ceilI(match) * int64(nRes+len(ins))
	est.Seconds = s.phys.Model.Seconds(&est.Meter)
	if est.Seconds >= bound {
		return cand{}, false
	}
	node := &plan.IndexScan{
		Tab: t, Info: info, Index: ix,
		EqVals: make([]val.Value, k), DriveInSet: -1, Covering: covering, RidSort: ridSort,
		Filters: s.filters(t, used, nRes), Ins: s.inFilters(t, -1), Est: est,
	}
	for i, si := range eq {
		node.EqVals[i] = sels[si].Value
	}
	if rng >= 0 {
		node.Range = &plan.RangeBound{Op: sels[rng].Op, Value: sels[rng].Value}
	}
	return cand{node: node, est: est}, true
}

// inDrivenCands prices driving the index with the values of each
// IN-subquery set on its first key column (one index probe per set
// value), and builds the cheapest that costs less than bound.
func (s *search) inDrivenCands(t int, ix *plan.IndexInfo, bound float64) (best cand, ok bool) {
	info := s.infos[t]
	sels, ins := s.sels[t], s.ins[t]
	for _, ii := range ins {
		if s.q.Ins[ii].Col.Col != ix.Cols[0] {
			continue
		}
		setSize := s.insets[ii].Est.Rows
		match := s.indexMatchRows(info, ix, 1, setSize)
		covering := s.covers(t, ix)
		resSel := 1.0
		for _, p := range sels {
			resSel *= s.selOf(info, p)
		}
		inSelAll := 1.0
		for _, jj := range ins {
			if jj != ii {
				inSelAll *= s.inSel[jj]
			}
		}
		est := plan.Est{Rows: match * resSel * inSelAll}
		var ridSort bool
		est.Meter, ridSort = s.indexAccessMeter(info, ix, setSize, match, covering, true, true)
		// Every selection, the other IN sets, and the probe itself.
		est.Meter.CPUOps += ceilI(match) * int64(len(sels)+len(ins))
		est.Seconds = s.phys.Model.Seconds(&est.Meter)
		if est.Seconds >= bound {
			continue
		}
		node := &plan.IndexScan{
			Tab: t, Info: info, Index: ix,
			DriveInSet: ii, Covering: covering, RidSort: ridSort,
			Filters: s.filters(t, nil, len(sels)), Ins: s.inFilters(t, ii), Est: est,
		}
		best, ok, bound = cand{node: node, est: est}, true, est.Seconds
	}
	return best, ok
}

// combine tries every split of mask into two disjoint covered subsets and
// keeps the cheapest join.
func (s *search) combine(mask uint32) {
	for s1 := (mask - 1) & mask; s1 > 0; s1 = (s1 - 1) & mask {
		s2 := mask ^ s1
		c1, c2 := &s.best[s1], &s.best[s2]
		if c1.node == nil || c2.node == nil {
			continue
		}
		lcols, rcols := s.joinPredsBetween(s1, s2)
		if s1 > s2 { // each unordered split once for hash joins
			if c, ok := s.hashJoinCand(c1, c2, s1, s2, lcols, rcols, s.bound(mask)); ok {
				s.best[mask] = c
			}
			if popcount(s1) == 1 && popcount(s2) == 1 && len(lcols) == 1 {
				if c, ok := s.mergeJoinCands(trailingTable(s1), trailingTable(s2), lcols[0], rcols[0], s.bound(mask)); ok {
					s.best[mask] = c
				}
			}
		}
		if popcount(s2) == 1 && len(lcols) > 0 {
			if c, ok := s.indexJoinCands(c1, trailingTable(s2), lcols, rcols, s.bound(mask)); ok {
				s.best[mask] = c
			}
		}
	}
}

func trailingTable(mask uint32) int {
	for t := 0; t < 32; t++ {
		if mask&(1<<uint(t)) != 0 {
			return t
		}
	}
	return -1
}

// joinKeyNDV estimates the distinct count of the join key columns using
// base-table column statistics (ignoring upstream filtering — a standard,
// and standardly imperfect, assumption).
func (s *search) joinKeyNDV(cols []sql.QCol) float64 {
	ndv := 1.0
	for i, c := range cols {
		info := s.infos[c.Tab]
		n := 10.0
		if info != nil && info.Stats != nil {
			n = float64(info.Stats.Cols[c.Col].NDV)
		}
		if n < 1 {
			n = 1
		}
		if i == 0 {
			ndv = n
		} else {
			ndv *= math.Sqrt(n)
		}
	}
	return ndv
}

// hashJoinCand prices joining c1 and c2 through a hash table on the
// smaller side, and builds the join only if it costs less than bound.
func (s *search) hashJoinCand(c1, c2 *cand, m1, m2 uint32, lcols, rcols []sql.QCol, bound float64) (cand, bool) {
	r1, r2 := c1.est.Rows, c2.est.Rows
	var rowsOut float64
	if len(lcols) == 0 {
		rowsOut = r1 * r2 // cross join
	} else {
		ndv := math.Max(s.joinKeyNDV(lcols), s.joinKeyNDV(rcols))
		maxSide := math.Max(math.Max(r1, r2), 1)
		if ndv > maxSide {
			ndv = maxSide
		}
		rowsOut = r1 * r2 / math.Max(ndv, 1)
	}

	// Build on the smaller side.
	build, probe := c1, c2
	bMask, pMask := m1, m2
	bKeys, pKeys := lcols, rcols
	if r2 < r1 {
		build, probe = c2, c1
		bMask, pMask = m2, m1
		bKeys, pKeys = rcols, lcols
	}
	width := s.rowWidthOf(bMask)

	est := plan.Est{Rows: rowsOut}
	est.Meter.Add(build.est.Meter)
	est.Meter.Add(probe.est.Meter)
	est.Meter.CPUOps += ceilI(build.est.Rows) + ceilI(probe.est.Rows)
	if len(bKeys) == 0 {
		est.Meter.CPUOps += ceilI(rowsOut) // nested cross product work
	}
	buildBytes := int64(build.est.Rows) * int64(width)
	if float64(buildBytes)*s.scale() > float64(s.phys.Mem) {
		// GRACE-style spill: both sides partitioned to disk and re-read.
		probeBytes := int64(probe.est.Rows) * int64(s.rowWidthOf(pMask))
		pg := pagesFor(buildBytes) + pagesFor(probeBytes)
		est.Meter.WritePage += pg
		est.Meter.SeqPages += pg
	}
	est.Seconds = s.phys.Model.Seconds(&est.Meter)
	if est.Seconds >= bound {
		return cand{}, false
	}

	node := &plan.HashJoin{
		Build: build.node, Probe: probe.node,
		BuildKeys: make([]int, len(bKeys)), ProbeKeys: make([]int, len(pKeys)),
		BuildWidth: width, Est: est,
	}
	for i := range bKeys {
		node.BuildKeys[i] = s.layout.Offset(bKeys[i])
		node.ProbeKeys[i] = s.layout.Offset(pKeys[i])
	}
	return cand{node: node, est: est}, true
}

// indexJoinCands prices index-nested-loop joins of the outer subplan to
// inner table t2 through each index a join predicate binds, and builds the
// cheapest that costs less than bound.
func (s *search) indexJoinCands(outer *cand, t2 int, lcols, rcols []sql.QCol, bound float64) (best cand, ok bool) {
	info := s.infos[t2]
	sels, ins := s.sels[t2], s.ins[t2]
	usedSel, usedJoin := s.usedSel[:len(sels)], s.usedJoin[:len(lcols)]
	for _, ix := range s.ixs[t2] {
		clear(usedSel)
		clear(usedJoin)
		binds := s.binds[:0]
		joinBinds := 0
		for _, col := range ix.Cols {
			n := len(binds)
			for i, p := range sels {
				if !usedSel[i] && p.Col.Col == col && p.Op == "=" {
					usedSel[i] = true
					binds = append(binds, i)
					break
				}
			}
			if len(binds) == n {
				for i := range lcols {
					if !usedJoin[i] && rcols[i].Tab == t2 && rcols[i].Col == col {
						usedJoin[i] = true
						binds = append(binds, ^i)
						joinBinds++
						break
					}
				}
			}
			if len(binds) == n {
				break
			}
		}
		s.binds = binds
		if joinBinds == 0 {
			continue
		}
		k := len(binds)
		covering := s.covers(t2, ix)

		perProbe := s.indexMatchRows(info, ix, k, 1)
		probes := outer.est.Rows
		totalMatch := probes * perProbe

		// Residual join predicates (columns are needed, hence present even
		// under a covering index).
		postSel, nPost := 1.0, 0
		for i := range lcols {
			if !usedJoin[i] {
				nd := math.Max(s.joinKeyNDV(lcols[i:i+1]), s.joinKeyNDV(rcols[i:i+1]))
				postSel /= math.Max(nd, 1)
				nPost++
			}
		}
		// Residual selections.
		resSel, nRes := 1.0, 0
		for i, p := range sels {
			if !usedSel[i] {
				resSel *= s.selOf(info, p)
				nRes++
			}
		}
		inSelAll := 1.0
		for _, ii := range ins {
			inSelAll *= s.inSel[ii]
		}

		est := plan.Est{Rows: totalMatch * postSel * resSel * inSelAll}
		est.Meter.Add(outer.est.Meter)
		am, _ := s.indexAccessMeter(info, ix, probes, totalMatch, covering, true, false)
		est.Meter.Add(am)
		est.Meter.CPUOps += ceilI(probes) * 2
		est.Meter.CPUOps += ceilI(totalMatch) * int64(nRes+len(ins)+nPost)
		est.Seconds = s.phys.Model.Seconds(&est.Meter)
		if est.Seconds >= bound {
			continue
		}

		node := &plan.IndexJoin{
			Outer: outer.node, Tab: t2, Info: info, Index: ix,
			Binds: make([]plan.KeyBind, k), Covering: covering,
			Filters: s.filters(t2, usedSel, nRes), Ins: s.inFilters(t2, -1), Est: est,
		}
		consts := make([]val.Value, 0, k-joinBinds)
		for i, ref := range binds {
			if ref >= 0 {
				consts = append(consts, sels[ref].Value)
				node.Binds[i].Const = &consts[len(consts)-1]
			} else {
				node.Binds[i].OuterOffset = s.layout.Offset(lcols[^ref])
			}
		}
		if nPost > 0 {
			node.PostEq = make([]plan.EqPair, 0, nPost)
			for i := range lcols {
				if !usedJoin[i] {
					node.PostEq = append(node.PostEq, plan.EqPair{
						A: s.layout.Offset(lcols[i]), B: s.layout.Offset(rcols[i]),
					})
				}
			}
		}
		best, ok, bound = cand{node: node, est: est}, true, est.Seconds
	}
	return best, ok
}

package optimizer

import (
	"slices"
	"strings"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// viewSel is a selection on a table a view covers, with the view column
// that holds the selected column.
type viewSel struct {
	viewCol int
	pred    sql.SelPred
}

// matchView offers a materialized view as a ViewScan over the query tables
// it covers. A view matches when:
//
//   - every base table of the view appears exactly once in the query (views
//     are skipped for self-joined table names, where the mapping would be
//     ambiguous);
//   - every join predicate of the view's defining query appears in the
//     query, and every query join predicate local to the covered tables is
//     implied by the view (otherwise the view would lose a constraint);
//   - every query-needed column of the covered tables is present in the
//     view's projection.
//
// The view's sequential scan and its index scans are priced first; the
// cheapest is built only if it beats the best plan for the covered tables.
func (s *search) matchView(v *plan.ViewInfo) {
	// Map view defining-query table ordinals to query table ordinals.
	tabMap := make([]int, len(v.Query.Tables))
	var mask uint32
	for vi, vt := range v.Query.Tables {
		found := -1
		for qi, qt := range s.q.Tables {
			if strings.EqualFold(qt.Table.Name, vt.Table.Name) {
				if found >= 0 {
					return // ambiguous (self-join)
				}
				found = qi
			}
		}
		if found < 0 {
			return
		}
		tabMap[vi] = found
		mask |= 1 << uint(found)
	}

	// Join-predicate containment, both directions.
	mapCol := func(c sql.QCol) sql.QCol { return sql.QCol{Tab: tabMap[c.Tab], Col: c.Col} }
	joinEq := func(a, b sql.JoinPred) bool {
		return (a.L == b.L && a.R == b.R) || (a.L == b.R && a.R == b.L)
	}
	for _, vj := range v.Query.Joins {
		mapped := sql.JoinPred{L: mapCol(vj.L), R: mapCol(vj.R)}
		ok := false
		for _, qj := range s.q.Joins {
			if joinEq(mapped, qj) {
				ok = true
				break
			}
		}
		if !ok {
			return
		}
	}
	for _, qj := range s.q.Joins {
		inL := mask&(1<<uint(qj.L.Tab)) != 0
		inR := mask&(1<<uint(qj.R.Tab)) != 0
		if !inL || !inR {
			continue
		}
		ok := false
		for _, vj := range v.Query.Joins {
			if joinEq(sql.JoinPred{L: mapCol(vj.L), R: mapCol(vj.R)}, qj) {
				ok = true
				break
			}
		}
		if !ok {
			return
		}
	}

	// Column coverage: every needed column of covered tables must be a
	// view output column.
	for qi := range s.q.Tables {
		if mask&(1<<uint(qi)) == 0 {
			continue
		}
		for _, c := range s.needed[qi] {
			if viewColOf(v, tabMap, sql.QCol{Tab: qi, Col: c}) < 0 {
				return
			}
		}
	}

	// Predicates on covered tables.
	rows := float64(v.Stats.Rows)
	filterSel, inSelAll := 1.0, 1.0
	nIns := 0
	sels := s.viewSels[:0]
	for qi := range s.q.Tables {
		if mask&(1<<uint(qi)) == 0 {
			continue
		}
		for _, p := range s.sels[qi] {
			vc := viewColOf(v, tabMap, p.Col)
			sels = append(sels, viewSel{viewCol: vc, pred: p})
			sel := v.Stats.Selectivity(vc, p.Op, p.Value)
			if sel <= 0 {
				sel = 0.5 / maxF(1, rows)
			}
			filterSel *= sel
		}
		for _, ii := range s.ins[qi] {
			filterSel *= s.inSel[ii]
			inSelAll *= s.inSel[ii]
			nIns++
		}
	}
	s.viewSels = sels
	nFilters := int64(len(sels) + nIns)

	// Candidate 1: sequential scan of the view.
	best := plan.Est{Rows: rows * filterSel}
	best.Meter.SeqPages = viewPages(v)
	best.Meter.Rows = v.Stats.Rows
	best.Meter.CPUOps = v.Stats.Rows * nFilters
	best.Seconds = s.phys.Model.Seconds(&best.Meter)
	var bestIx *plan.IndexInfo // nil: the sequential scan

	// Candidate 2: index scans over the view via constant-equality
	// prefixes.
	for _, ix := range sortedIndexes(s.phys.IndexesOn(v.Def.Name)) {
		k := len(s.viewPrefix(ix, sels))
		if k == 0 {
			continue
		}
		ndv := float64(ix.KeyNDV[k-1])
		if ndv < 1 {
			ndv = 1
		}
		match := rows / ndv
		if ix.Hypothetical && !s.opts.HypoIdeal {
			match *= s.opts.hypoPenalty()
			if match > rows {
				match = rows
			}
		}
		resSel := 1.0
		for i, sb := range sels {
			if s.usedSel[i] {
				continue
			}
			sel := v.Stats.Selectivity(sb.viewCol, sb.pred.Op, sb.pred.Value)
			if sel <= 0 {
				sel = 0.5 / maxF(1, rows)
			}
			resSel *= sel
		}
		est := plan.Est{Rows: match * resSel * inSelAll}
		est.Meter.FixedRand = int64(ix.Height) + 1
		epl := float64(ix.EntriesPerLeaf)
		if epl < 1 {
			epl = 1
		}
		est.Meter.SeqPages = ceilI(match / epl)
		fetch := cardenas(match, float64(viewPages(v)))
		if ix.Hypothetical && !s.opts.HypoIdeal {
			fetch = match
		}
		est.Meter.RandPages += ceilI(fetch)
		est.Meter.Rows = ceilI(match)
		est.Meter.CPUOps = ceilI(match) * nFilters
		est.Seconds = s.phys.Model.Seconds(&est.Meter)
		if est.Seconds < best.Seconds {
			best, bestIx = est, ix
		}
	}
	if best.Seconds >= s.bound(mask) {
		return
	}

	// Build the winner, mapping view columns to flat offsets.
	node := &plan.ViewScan{View: v, Index: bestIx, ColOffsets: make([]int, len(v.OutSrc)), Est: best}
	for qi := range s.q.Tables {
		if mask&(1<<uint(qi)) == 0 {
			continue
		}
		node.Tabs = append(node.Tabs, qi)
		for _, p := range s.sels[qi] {
			node.Filters = append(node.Filters, plan.Filter{
				Offset: s.layout.Offset(p.Col), Op: p.Op, Value: p.Value,
			})
		}
		for _, ii := range s.ins[qi] {
			node.Ins = append(node.Ins, plan.InFilter{
				Offset: s.layout.Offset(s.q.Ins[ii].Col), SetID: ii,
			})
		}
	}
	for i, src := range v.OutSrc {
		node.ColOffsets[i] = -1
		if qc := mapCol(src); slices.Contains(s.needed[qc.Tab], qc.Col) {
			node.ColOffsets[i] = s.layout.Offset(qc)
		}
	}
	if bestIx != nil {
		eq := s.viewPrefix(bestIx, sels)
		node.EqVals = make([]val.Value, len(eq))
		for i, si := range eq {
			node.EqVals[i] = sels[si].pred.Value
		}
	}
	s.best[mask] = cand{node: node, est: best}
}

// viewPrefix binds the longest prefix of the view index's key it can to
// equality selections, marks them in s.usedSel, and returns their
// ordinals in key order.
func (s *search) viewPrefix(ix *plan.IndexInfo, sels []viewSel) []int {
	used := s.usedSel[:len(sels)]
	clear(used)
	eq := s.binds[:0]
	for _, col := range ix.Cols {
		found := -1
		for i, sb := range sels {
			if !used[i] && sb.viewCol == col && sb.pred.Op == "=" {
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
	return eq
}

// viewColOf returns the view column that outputs query column qc (the last
// one, should the view output it twice), or -1.
func viewColOf(v *plan.ViewInfo, tabMap []int, qc sql.QCol) int {
	for i := len(v.OutSrc) - 1; i >= 0; i-- {
		if src := v.OutSrc[i]; tabMap[src.Tab] == qc.Tab && src.Col == qc.Col {
			return i
		}
	}
	return -1
}

// viewPages returns the view's page count, from the heap when the view is
// materialized or from derived statistics when it is hypothetical.
func viewPages(v *plan.ViewInfo) int64 {
	if v.Heap != nil {
		return v.Heap.Pages()
	}
	return v.Stats.Pages
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

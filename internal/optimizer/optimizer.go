// Package optimizer implements the benchmark engine's cost-based query
// optimizer: access-path selection (sequential, index, index-only and
// materialized-view scans), join ordering via dynamic programming over
// table subsets, hash and index-nested-loop joins, and hash aggregation.
//
// The same optimizer serves three roles in the paper's framework:
//
//   - picking the plan the executor runs (actual cost A comes from running
//     that plan);
//   - producing the estimate E(q, C) for the current configuration;
//   - producing the hypothetical estimate H(q, Ch, Ca) when the Physical
//     description contains hypothetical indexes whose statistics were
//     derived rather than measured (the what-if path used by recommenders).
//
// The search prices every candidate before it builds one. A candidate's
// estimate is computed in scratch the search owns, and its plan node, key
// bindings and filter lists are allocated only if it costs strictly less
// than the best plan found so far for its table set, the rule that picked
// winners when every candidate was built. So the plans are the same, and a
// what-if call pays allocations only for the candidates that win
// (DESIGN §11).
//
// Options carries the profile knobs that differentiate the simulated
// commercial systems (paper Systems A, B and C).
package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/plan"
	"repro/internal/sql"
)

// Options controls optimizer behavior for a system profile.
type Options struct {
	// HypoRowPenalty (>= 1) multiplies the estimated matching row count of
	// lookups through hypothetical indexes. It models the conservatism of
	// derived what-if statistics that the paper's Figure 10 exposes
	// (curve H1C vs E1C). 0 means 1 (no penalty).
	HypoRowPenalty float64
	// HypoIdeal grants hypothetical indexes the same treatment as built
	// ones (no penalty, locality credit). Used by the what-if ablation:
	// "what if the recommender could observe?" (paper §6's missing
	// observation step).
	HypoIdeal bool
	// HypoNoMergeJoin hides index-to-index merge joins and index-only
	// IN-set computation from hypothetical estimation: the what-if
	// interface prices a proposed index only through lookup- and
	// covering-scan-style plans. This is the blind spot that makes a
	// recommender "miss the potential gains brought by single column
	// indexes" (the paper's closing recommendation).
	HypoNoMergeJoin bool
	// NoViews disables materialized-view matching (System A and B do not
	// recommend or use views in the NREF experiments).
	NoViews bool
	// NoIndexOnly disables covering (index-only) scans.
	NoIndexOnly bool
}

func (o Options) hypoPenalty() float64 {
	if o.HypoRowPenalty < 1 {
		return 1
	}
	return o.HypoRowPenalty
}

// Optimize picks the cheapest plan for the analyzed query under the given
// physical design.
func Optimize(phys *plan.Physical, q *sql.Query, opts Options) (*plan.Plan, error) {
	o := &search{phys: phys, q: q, opts: opts, layout: plan.NewLayout(q)}
	return o.run()
}

// cand is a candidate subplan covering a set of tables.
type cand struct {
	node plan.Node
	est  plan.Est
}

// search is one Optimize call. It belongs to one goroutine, which is what
// lets it reuse its scratch from one candidate to the next; a winner
// copies out everything its node keeps.
type search struct {
	phys   *plan.Physical
	q      *sql.Query
	opts   Options
	layout plan.Layout

	insets []plan.InSetPlan
	// inSel[i] is the estimated selectivity of IN predicate i on its
	// outer column.
	inSel []float64

	// per-table predicate partitions (by table ordinal)
	sels [][]sql.SelPred
	ins  [][]int // indexes into q.Ins

	// infos[t] and ixs[t] are query table t's storage and its name-sorted
	// indexes, resolved once per search.
	infos []*plan.TableInfo
	ixs   [][]*plan.IndexInfo

	// needed[t] lists, ascending, the column offsets of table t referenced
	// anywhere in the query (for covering-index checks).
	needed [][]int

	// best[mask] is the cheapest subplan found so far for the table set
	// mask; a nil node means none yet.
	best []cand

	// Scratch for pricing a candidate before building it.
	usedSel      []bool     // selections the candidate consumes as key bindings
	usedJoin     []bool     // join predicates an index join consumes as key bindings
	binds        []int      // per bound key column: selection i as i, join predicate i as ^i
	lcols, rcols []sql.QCol // joinPredsBetween's result
	viewSels     []viewSel  // the selections a matched view filters
}

func (s *search) run() (*plan.Plan, error) {
	n := len(s.q.Tables)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	if n > 12 {
		return nil, fmt.Errorf("optimizer: too many tables (%d)", n)
	}
	s.infos = make([]*plan.TableInfo, n)
	s.ixs = make([][]*plan.IndexInfo, n)
	for t, qt := range s.q.Tables {
		s.infos[t] = s.phys.TableAt(t, qt.Table.Name)
		s.ixs[t] = sortedIndexes(s.phys.IndexesAt(t, qt.Table.Name))
	}
	s.usedSel = make([]bool, len(s.q.Sels))
	s.usedJoin = make([]bool, len(s.q.Joins))
	s.lcols = make([]sql.QCol, 0, len(s.q.Joins))
	s.rcols = make([]sql.QCol, 0, len(s.q.Joins))
	s.partitionPredicates()
	s.computeNeeded()
	if err := s.planInSets(); err != nil {
		return nil, err
	}

	s.best = make([]cand, 1<<uint(n))

	// Single-table access paths.
	for t := 0; t < n; t++ {
		c, err := s.bestAccessPath(t)
		if err != nil {
			return nil, err
		}
		s.best[1<<uint(t)] = c
	}

	// Materialized-view seeds (may cover multiple tables).
	if !s.opts.NoViews {
		for _, v := range s.phys.Views {
			s.matchView(v)
		}
	}

	// DP over subsets.
	full := uint32(len(s.best) - 1)
	for mask := uint32(1); mask <= full; mask++ {
		if s.best[mask].node != nil && popcount(mask) == 1 {
			continue
		}
		s.combine(mask)
	}
	root := s.best[full]
	if root.node == nil {
		return nil, fmt.Errorf("optimizer: no plan for %d tables", n)
	}

	top, topEst := s.finalize(root)
	total := topEst
	for _, is := range s.insets {
		total.Meter.Add(is.Est.Meter)
	}
	total.Seconds = s.phys.Model.Seconds(&total.Meter)
	return &plan.Plan{
		Query:  s.q,
		Layout: s.layout,
		Root:   top,
		InSets: s.insets,
		Mem:    s.phys.Mem,
		Est:    total,
	}, nil
}

// bound is what a candidate for the table set mask must cost less than to
// win: the best plan's seconds so far, or +Inf while the set has none.
// Strictly less, so a tie keeps the plan found first.
func (s *search) bound(mask uint32) float64 {
	if s.best[mask].node == nil {
		return math.Inf(1)
	}
	return s.best[mask].est.Seconds
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// partitionPredicates splits selections and IN predicates by table.
func (s *search) partitionPredicates() {
	n := len(s.q.Tables)
	s.sels = make([][]sql.SelPred, n)
	for _, p := range s.q.Sels {
		s.sels[p.Col.Tab] = append(s.sels[p.Col.Tab], p)
	}
	s.ins = make([][]int, n)
	for i, p := range s.q.Ins {
		s.ins[p.Col.Tab] = append(s.ins[p.Col.Tab], i)
	}
}

// computeNeeded collects, per table, every column the query references.
func (s *search) computeNeeded() {
	s.needed = make([][]int, len(s.q.Tables))
	add := func(c sql.QCol) { s.needed[c.Tab] = append(s.needed[c.Tab], c.Col) }
	for _, j := range s.q.Joins {
		add(j.L)
		add(j.R)
	}
	for _, p := range s.q.Sels {
		add(p.Col)
	}
	for _, p := range s.q.Ins {
		add(p.Col)
	}
	for _, g := range s.q.GroupBy {
		add(g)
	}
	for _, a := range s.q.Aggs {
		if a.Kind != sql.AggCountStar {
			add(a.Col)
		}
	}
	for _, o := range s.q.Out {
		if o.Kind == sql.OutCol {
			add(o.Col)
		}
	}
	for t, cols := range s.needed {
		slices.Sort(cols)
		s.needed[t] = slices.Compact(cols)
	}
}

// planInSets chooses how each IN-subquery set is computed and estimates
// its size and cost.
func (s *search) planInSets() error {
	for _, p := range s.q.Ins {
		info := s.phys.Table(p.SubTable.Name)
		if info == nil {
			return fmt.Errorf("optimizer: no physical table %s", p.SubTable.Name)
		}
		is := plan.InSetPlan{Pred: p, Info: info}

		// Prefer an index whose first key column is the subquery column:
		// the set streams out of an index-only scan in sorted order.
		// Hypothetical indexes qualify too — what-if estimation must see
		// this benefit (plans from what-if calls are never executed).
		if !s.opts.NoIndexOnly && len(p.SubSels) == 0 {
			for _, ix := range sortedIndexes(s.phys.IndexesOn(p.SubTable.Name)) {
				if len(ix.Cols) >= 1 && ix.Cols[0] == p.SubCol {
					if ix.Hypothetical && s.opts.HypoNoMergeJoin && !s.opts.HypoIdeal {
						continue // lookup-only what-if (see Options)
					}
					is.Index = ix
					break
				}
			}
		}
		if is.Index != nil {
			// Walk all leaf entries of the index.
			entries := float64(info.Stats.Rows)
			is.Est.Meter.SeqPages = ceilI(entries / float64(is.Index.EntriesPerLeaf))
			is.Est.Meter.FixedRand = int64(is.Index.Height)
			is.Est.Meter.Rows = int64(entries)
		} else {
			is.Est.Meter.SeqPages = info.Heap.Pages()
			is.Est.Meter.Rows = info.Stats.Rows
			// Hash aggregation over the subquery column.
			is.Est.Meter.CPUOps = info.Stats.Rows
			g := info.Stats.Cols[p.SubCol].NDV
			bytes := g * 24
			if float64(bytes)*s.scale() > float64(s.phys.Mem) {
				pg := pagesFor(bytes)
				is.Est.Meter.WritePage += pg
				is.Est.Meter.SeqPages += pg
			}
		}
		setSize, rowFrac := s.estimateInSetSize(p, info)
		is.Est.Rows = setSize
		is.Est.Seconds = s.phys.Model.Seconds(&is.Est.Meter)
		s.insets = append(s.insets, is)

		// Selectivity of "col IN set" on the outer column. When the
		// predicate is self-referential (col IN (SELECT col FROM its own
		// table ...)), the row fraction follows directly from the HAVING
		// analysis: sets of infrequent values cover few rows. Otherwise
		// assume the outer column's values are uniformly likely to land
		// in the set.
		outerName := s.q.Tables[p.Col.Tab].Table.Name
		sel := 1.0
		if strings.EqualFold(outerName, p.SubTable.Name) && p.Col.Col == p.SubCol {
			sel = rowFrac
		} else if oInfo := s.phys.Table(outerName); oInfo != nil && oInfo.Stats != nil {
			if ndv := float64(oInfo.Stats.Cols[p.Col.Col].NDV); ndv > 0 {
				sel = setSize / ndv
			}
		}
		if sel > 1 {
			sel = 1
		}
		if sel <= 0 {
			sel = 1e-9
		}
		s.inSel = append(s.inSel, sel)
	}
	return nil
}

// estimateInSetSize estimates how many distinct subquery-column values
// satisfy the HAVING clause (setSize) and what fraction of the subquery
// table's rows carry those values (rowFrac). Each histogram bucket's
// values are modeled as having frequencies uniform around the bucket's
// average, so buckets of rare values (low count/distinct) contribute
// fully to predicates like COUNT(*) < 4 while heavy-hitter buckets
// contribute nothing — and the rows covered reflect that the qualifying
// values are, by construction, infrequent.
func (s *search) estimateInSetSize(p sql.InPred, info *plan.TableInfo) (setSize, rowFrac float64) {
	cs := info.Stats.Cols[p.SubCol]
	rows := float64(info.Stats.Rows)
	if p.Having == nil {
		return float64(cs.NDV), 1
	}
	var qualifying, qualRows float64
	for _, b := range cs.Hist {
		if b.Distinct <= 0 {
			continue
		}
		avg := float64(b.Count) / float64(b.Distinct)
		frac := tailFraction(p.Having.Op, float64(p.Having.Value), avg)
		q := float64(b.Distinct) * frac
		qualifying += q
		qualRows += q * condMeanFreq(p.Having.Op, float64(p.Having.Value), avg)
	}
	if len(cs.Hist) == 0 {
		qualifying = float64(cs.NDV) / 3
		qualRows = rows / 3
	}
	if qualifying < 1 {
		qualifying = 1
	}
	if qualifying > float64(cs.NDV) {
		qualifying = float64(cs.NDV)
	}
	if rows <= 0 {
		return qualifying, 0
	}
	rowFrac = qualRows / rows
	if rowFrac > 1 {
		rowFrac = 1
	}
	if rowFrac <= 0 {
		rowFrac = 0.5 / rows
	}
	return qualifying, rowFrac
}

// condMeanFreq is the expected frequency of a value given that its
// frequency (modeled uniform on [1, 2*avg-1]) satisfies "freq op k".
func condMeanFreq(op string, k, avg float64) float64 {
	span := 2*avg - 1
	if span < 1 {
		span = 1
	}
	switch op {
	case "<":
		return math.Min(avg, math.Max(1, k/2))
	case "<=":
		return math.Min(avg, math.Max(1, (k+1)/2))
	case ">":
		return math.Min(span, math.Max(avg, (k+1+span)/2))
	case ">=":
		return math.Min(span, math.Max(avg, (k+span)/2))
	case "=":
		return math.Max(1, k)
	}
	return avg
}

// tailFraction returns the fraction of counts c ~ Uniform[1, 2*avg-1]
// satisfying "c op k".
func tailFraction(op string, k, avg float64) float64 {
	span := 2*avg - 1
	if span < 1 {
		span = 1
	}
	clamp := func(f float64) float64 {
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	switch op {
	case "<":
		return clamp((k - 1) / span)
	case "<=":
		return clamp(k / span)
	case ">":
		return clamp((span - k) / span)
	case ">=":
		return clamp((span - k + 1) / span)
	case "=":
		if k >= 1 && k <= span {
			return 1 / span
		}
		return 0
	case "<>":
		if k >= 1 && k <= span {
			return 1 - 1/span
		}
		return 1
	}
	return 0.3
}

// finalize wraps the join tree with aggregation or projection.
func (s *search) finalize(root cand) (plan.Node, plan.Est) {
	q := s.q
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		// Plain projection.
		offsets := make([]int, len(q.Out))
		for i, o := range q.Out {
			offsets[i] = s.layout.Offset(o.Col)
		}
		est := root.est
		est.Seconds = s.phys.Model.Seconds(&est.Meter)
		n := &plan.Project{Input: root.node, Offsets: offsets, Est: est}
		return n, est
	}
	groups := make([]int, len(q.GroupBy))
	var groupNDV float64 = 1
	for i, g := range q.GroupBy {
		groups[i] = s.layout.Offset(g)
		info := s.infos[g.Tab]
		nd := 10.0
		if info != nil && info.Stats != nil {
			nd = float64(info.Stats.Cols[g.Col].NDV)
		}
		if i == 0 {
			groupNDV = nd
		} else {
			groupNDV *= math.Sqrt(nd)
		}
	}
	aggs := make([]plan.AggSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		spec := plan.AggSpec{Kind: a.Kind}
		if a.Kind != sql.AggCountStar {
			spec.Offset = s.layout.Offset(a.Col)
		}
		aggs[i] = spec
	}
	est := root.est
	inRows := root.est.Rows
	outRows := math.Min(inRows, groupNDV)
	if outRows < 1 {
		outRows = 1
	}
	est.Rows = outRows
	est.Meter.CPUOps += int64(inRows)
	// Aggregation hash table spill.
	bytes := int64(outRows) * int64(16+12*len(groups)+12*len(aggs))
	if float64(bytes)*s.scale() > float64(s.phys.Mem) {
		pg := pagesFor(bytes)
		est.Meter.WritePage += pg
		est.Meter.SeqPages += pg
	}
	est.Seconds = s.phys.Model.Seconds(&est.Meter)
	n := &plan.HashAgg{Input: root.node, Groups: groups, Aggs: aggs, Est: est}
	return n, est
}

func (s *search) scale() float64 {
	if s.phys.Model.Scale == 0 {
		return 1
	}
	return s.phys.Model.Scale
}

func ceilI(f float64) int64 {
	if f <= 0 {
		return 0
	}
	return int64(math.Ceil(f))
}

func pagesFor(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + 4095) / 4096
}

// joinPredsBetween returns the join predicates with one side in each mask,
// in the search's scratch: they hold until its next call.
func (s *search) joinPredsBetween(m1, m2 uint32) (left, right []sql.QCol) {
	left, right = s.lcols[:0], s.rcols[:0]
	for _, j := range s.q.Joins {
		lIn1 := m1&(1<<uint(j.L.Tab)) != 0
		rIn2 := m2&(1<<uint(j.R.Tab)) != 0
		lIn2 := m2&(1<<uint(j.L.Tab)) != 0
		rIn1 := m1&(1<<uint(j.R.Tab)) != 0
		switch {
		case lIn1 && rIn2:
			left = append(left, j.L)
			right = append(right, j.R)
		case lIn2 && rIn1:
			left = append(left, j.R)
			right = append(right, j.L)
		}
	}
	return left, right
}

// sortedIndexes returns the indexes of a relation in a deterministic order
// (so plans are stable across runs). The engine and the what-if assembler
// keep their per-relation lists name-sorted at construction
// (plan.SortIndexes), so the common case returns the input without the
// per-call copy the estimate hot path used to pay; an unsorted list
// (hand-built Physical descriptions in tests) still gets the copy-and-sort
// fallback.
func sortedIndexes(ixs []*plan.IndexInfo) []*plan.IndexInfo {
	for i := 1; i < len(ixs); i++ {
		if ixs[i-1].Name > ixs[i].Name {
			out := append([]*plan.IndexInfo(nil), ixs...)
			plan.SortIndexes(out)
			return out
		}
	}
	return ixs
}

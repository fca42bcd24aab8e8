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
// There is one search, with two ends. The search prices every candidate
// in scratch it owns and keeps, per table set, the estimate of the
// cheapest candidate so far and a choice record of how to build it: the
// kind, the split, the table's index, the IN set or the view. It builds no
// plan node. Optimize is the search followed by a build of the winning
// tree alone, each kind re-running its binding code for the recorded
// choice; Estimate is the search without the build. A candidate replaces
// the incumbent only if it costs strictly less, and candidates are priced
// in a fixed order, so both ends see the same winner and Estimate returns
// Optimize's plan estimate bit for bit (DESIGN §11).
//
// Search scratch is pooled: a call takes one, and puts it back after
// dropping every reference to the call's physical design and query.
// Optimize copies out everything its plan keeps, so a plan never shares
// an array with scratch a later search reuses.
//
// Options carries the profile knobs that differentiate the simulated
// commercial systems (paper Systems A, B and C).
package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
// physical design: the search, then a build of the winning tree.
func Optimize(phys *plan.Physical, q *sql.Query, opts Options) (*plan.Plan, error) {
	s := searches.Get().(*search)
	defer s.release()
	return s.optimize(phys, q, opts)
}

// Estimate returns the estimate of the plan Optimize picks, bit for bit,
// from the same search without building the plan: what a what-if estimate
// needs. With the scratch pool warm it allocates nothing.
func Estimate(phys *plan.Physical, q *sql.Query, opts Options) (plan.Est, error) {
	s := searches.Get().(*search)
	defer s.release()
	if err := s.run(phys, q, opts); err != nil {
		return plan.Est{}, err
	}
	return s.total(s.finalEst(s.best[len(s.best)-1].est)), nil
}

// searches holds idle search scratch. A search goes back only after
// release has dropped its references to the caller's physical design and
// query, so an idle scratch pins no snapshot.
var searches = sync.Pool{New: func() any { return new(search) }}

// optimize is Optimize on the given scratch.
func (s *search) optimize(phys *plan.Physical, q *sql.Query, opts Options) (*plan.Plan, error) {
	if err := s.run(phys, q, opts); err != nil {
		return nil, err
	}
	full := uint32(len(s.best) - 1)
	est := s.finalEst(s.best[full].est)
	s.layout = plan.NewLayout(q)
	p := &plan.Plan{
		Query:  q,
		Layout: s.layout,
		Root:   s.finalNode(s.build(full), est),
		Mem:    phys.Mem,
		Est:    s.total(est),
	}
	if len(s.insets) > 0 {
		p.InSets = slices.Clone(s.insets)
	}
	return p, nil
}

// kind is the operator a winning candidate builds.
type kind uint8

const (
	noPlan    kind = iota // the table set has no plan yet
	seqScan               // the set's one table, sequentially
	indexScan             // ix bound by constant predicates
	inDriven              // ix probed with the values of IN set `set`
	hashJoin              // build side left, probe side right
	mergeJoin             // left's table through ix, right's through ix2
	indexJoin             // outer left, inner table right through ix
	viewScan              // view, through ix or sequentially
)

// choice records how a winning candidate is built: its kind and the inputs
// its binding code takes, nothing that code derives from them. Building
// re-runs that code, so keys, filters and PostEq come from one function.
type choice struct {
	kind        kind
	ridSort     bool   // indexScan, inDriven: the fetch strategy priced
	left, right uint32 // the two table sets a join combines
	set         int    // inDriven: the IN set
	ix, ix2     *plan.IndexInfo
	view        *plan.ViewInfo
}

// cand is a candidate subplan covering a set of tables: its estimate and
// how to build it.
type cand struct {
	est plan.Est
	ch  choice
}

// search is one search's scratch. A search belongs to one goroutine, which
// is what lets it reuse its scratch from one candidate to the next and,
// through the pool, from one call to the next; a built plan copies out
// everything it keeps.
type search struct {
	phys *plan.Physical
	q    *sql.Query
	opts Options
	// layout is the plan's, made when a search builds one: pricing never
	// reads it.
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
	// mask.
	best []cand

	// Scratch for pricing a candidate before building it.
	usedSel      []bool     // selections the candidate consumes as key bindings
	usedJoin     []bool     // join predicates an index join consumes as key bindings
	binds        []int      // per bound key column: selection i as i, join predicate i as ^i
	lcols, rcols []sql.QCol // joinPredsBetween's result
	viewSels     []viewSel  // the selections a matched view filters
	tabMap       []int      // a matched view's table ordinals in the query
}

// run is the search: it leaves the cheapest candidate for every table set
// in s.best, the full set's last.
func (s *search) run(phys *plan.Physical, q *sql.Query, opts Options) error {
	n := len(q.Tables)
	if n == 0 {
		return fmt.Errorf("optimizer: query has no tables")
	}
	if n > 12 {
		return fmt.Errorf("optimizer: too many tables (%d)", n)
	}
	s.phys, s.q, s.opts = phys, q, opts
	s.infos = resize(s.infos, n)
	s.ixs = resize(s.ixs, n)
	for t, qt := range q.Tables {
		s.infos[t] = phys.TableAt(t, qt.Table.Name)
		s.ixs[t] = sortedIndexes(phys.IndexesAt(t, qt.Table.Name))
	}
	s.usedSel = resize(s.usedSel, len(q.Sels))
	s.usedJoin = resize(s.usedJoin, len(q.Joins))
	s.partitionPredicates()
	s.computeNeeded()
	if err := s.planInSets(); err != nil {
		return err
	}

	s.best = resize(s.best, 1<<uint(n))

	// Single-table access paths.
	for t := 0; t < n; t++ {
		c, err := s.bestAccessPath(t)
		if err != nil {
			return err
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
		if s.best[mask].ch.kind != noPlan && popcount(mask) == 1 {
			continue
		}
		s.combine(mask)
	}
	if s.best[full].ch.kind == noPlan {
		return fmt.Errorf("optimizer: no plan for %d tables", n)
	}
	return nil
}

// release drops the scratch's references to the caller's physical design
// and query — the storage, indexes, views and values they reach — and
// returns it to the pool.
func (s *search) release() {
	s.phys, s.q, s.layout = nil, nil, plan.Layout{}
	clear(s.infos)
	clear(s.ixs)
	clear(s.best)
	clear(s.insets)
	for _, ps := range s.sels {
		clear(ps)
	}
	clear(s.viewSels)
	searches.Put(s)
}

// resize returns xs with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// regroup returns xss with length n and every group empty, keeping each
// group's array.
func regroup[T any](xss [][]T, n int) [][]T {
	if cap(xss) < n {
		grown := make([][]T, n)
		copy(grown, xss[:cap(xss)])
		xss = grown
	}
	xss = xss[:n]
	for i := range xss {
		xss[i] = xss[i][:0]
	}
	return xss
}

// bound is what a candidate for the table set mask must cost less than to
// win: the best plan's seconds so far, or +Inf while the set has none.
// Strictly less, so a tie keeps the plan found first.
func (s *search) bound(mask uint32) float64 {
	if s.best[mask].ch.kind == noPlan {
		return math.Inf(1)
	}
	return s.best[mask].est.Seconds
}

// build materializes the winning plan for the table set mask, children
// first. Every set it reaches is final: the DP runs masks ascending, and a
// view seed is placed before it.
func (s *search) build(mask uint32) plan.Node {
	c := &s.best[mask]
	switch c.ch.kind {
	case seqScan:
		return s.buildSeqScan(trailingTable(mask), c.est)
	case indexScan:
		return s.buildIndexScan(trailingTable(mask), c.ch, c.est)
	case inDriven:
		return s.buildInDriven(trailingTable(mask), c.ch, c.est)
	case hashJoin:
		return s.buildHashJoin(c.ch, c.est)
	case mergeJoin:
		return s.buildMergeJoin(c.ch, c.est)
	case indexJoin:
		return s.buildIndexJoin(c.ch, c.est)
	case viewScan:
		return s.buildViewScan(c.ch, c.est)
	}
	panic(fmt.Sprintf("optimizer: no plan for table set %b", mask))
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
	s.sels = regroup(s.sels, n)
	for _, p := range s.q.Sels {
		s.sels[p.Col.Tab] = append(s.sels[p.Col.Tab], p)
	}
	s.ins = regroup(s.ins, n)
	for i, p := range s.q.Ins {
		s.ins[p.Col.Tab] = append(s.ins[p.Col.Tab], i)
	}
}

// computeNeeded collects, per table, every column the query references.
func (s *search) computeNeeded() {
	s.needed = regroup(s.needed, len(s.q.Tables))
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
	s.insets, s.inSel = s.insets[:0], s.inSel[:0]
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
			is.Est.Meter.Spill(s.phys.Model, s.phys.Mem, g*24, 0)
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

// finalEst is the estimate of the operator that tops the join tree whose
// estimate is root: a projection, or a hash aggregation and its spill.
func (s *search) finalEst(root plan.Est) plan.Est {
	q := s.q
	est := root
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		est.Seconds = s.phys.Model.Seconds(&est.Meter)
		return est
	}
	var groupNDV float64 = 1
	for i, g := range q.GroupBy {
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
	inRows := root.Rows
	outRows := math.Min(inRows, groupNDV)
	if outRows < 1 {
		outRows = 1
	}
	est.Rows = outRows
	est.Meter.CPUOps += int64(inRows)
	// Aggregation hash table spill.
	est.Meter.Spill(s.phys.Model, s.phys.Mem, int64(outRows)*int64(16+12*len(q.GroupBy)+12*len(q.Aggs)), 0)
	est.Seconds = s.phys.Model.Seconds(&est.Meter)
	return est
}

// finalNode builds the operator finalEst priced over the built join tree.
func (s *search) finalNode(input plan.Node, est plan.Est) plan.Node {
	q := s.q
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		offsets := make([]int, len(q.Out))
		for i, o := range q.Out {
			offsets[i] = s.layout.Offset(o.Col)
		}
		return &plan.Project{Input: input, Offsets: offsets, Est: est}
	}
	groups := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		groups[i] = s.layout.Offset(g)
	}
	aggs := make([]plan.AggSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		spec := plan.AggSpec{Kind: a.Kind}
		if a.Kind != sql.AggCountStar {
			spec.Offset = s.layout.Offset(a.Col)
		}
		aggs[i] = spec
	}
	return &plan.HashAgg{Input: input, Groups: groups, Aggs: aggs, Est: est}
}

// total adds the IN sets' work to the top operator's estimate: the
// estimate of the whole plan.
func (s *search) total(top plan.Est) plan.Est {
	for _, is := range s.insets {
		top.Meter.Add(is.Est.Meter)
	}
	top.Seconds = s.phys.Model.Seconds(&top.Meter)
	return top
}

func ceilI(f float64) int64 {
	if f <= 0 {
		return 0
	}
	return int64(math.Ceil(f))
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
	s.lcols, s.rcols = left, right
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

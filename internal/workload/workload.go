// Package workload generates the benchmark's query families (paper
// §3.2.2): large sets of structurally related exploratory queries obtained
// by binding template variables to schema elements and to constants chosen
// by value-frequency analysis.
//
// Five families are provided:
//
//	NREF2J  — two-way co-occurrence joins with HAVING COUNT(*) < 4
//	          IN-subquery restrictions, on the NREF database.
//	NREF3J  — self-join + join generalizing the paper's Example 1, with a
//	          constant selection s.c4 = k, on the NREF database.
//	SkTH3J  — three-way PK/FK + domain joins on the skewed TPC-H database.
//	SkTH3Js — the simpler variant restricted to Lineitem/Orders/Partsupp
//	          with only equality θ predicates.
//	UnTH3J  — the SkTH3J templates on the uniform TPC-H database.
//
// Following §4.1.1, each family supports distribution-preserving sampling
// down to the 100-query workloads used in the experiments.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/val"
)

// Query is one generated family member.
type Query struct {
	SQL    string
	Family string
}

// Family is a set of generated queries plus bookkeeping about the
// enumeration (paper §4.1.1 reports family sizes before restriction).
type Family struct {
	Name    string
	Queries []Query
	// UnrestrictedSize is the combinatorial size of the family before the
	// practical restrictions (fewer columns per table, fewer constants on
	// large tables) are applied.
	UnrestrictedSize int64
}

// Source provides the heaps the generator analyzes for constants.
type Source interface {
	Heap(table string) *storage.Heap
}

// Options tunes the enumeration restrictions of §4.1.1.
type Options struct {
	// MaxGroupByCols bounds the GROUP BY width (the templates use up to 3
	// for NREF, 4 for TPC-H).
	MaxGroupByCols int
	// GroupByVariants is how many GROUP BY column choices are enumerated
	// per template binding.
	GroupByVariants int
	// MaxColsPerTable restricts how many indexable columns of each table
	// participate (paper: "we did not use more than 4 columns per table").
	MaxColsPerTable int
	// LargeTableRows marks tables where fewer selection criteria are used.
	LargeTableRows int64
	// RelaxedConstants accepts constant triples whose frequencies do not
	// span orders of magnitude. Uniform databases (UnTH3J) need this: the
	// paper notes that family simply uses "different selection constants",
	// since uniform value frequencies cannot spread.
	RelaxedConstants bool
}

// DefaultOptions mirrors the paper's restrictions.
func DefaultOptions() Options {
	return Options{
		MaxGroupByCols:  3,
		GroupByVariants: 2,
		MaxColsPerTable: 4,
		LargeTableRows:  10_000_000,
	}
}

// freqTriple holds the paper's k1, k2, k3 constants for one column: k1 is
// a highest-selectivity (lowest-frequency) value; k2 and k3 have
// frequencies roughly one and two orders of magnitude larger.
type freqTriple struct {
	vals  [3]val.Value
	freqs [3]int64
	ok    bool
}

// generator carries shared state for one family enumeration.
type generator struct {
	schema *catalog.Schema
	src    Source
	opts   Options
	// freqCache caches per-column frequency analyses.
	freqCache map[string]freqTriple
}

func newGenerator(schema *catalog.Schema, src Source, opts Options) *generator {
	return &generator{schema: schema, src: src, opts: opts, freqCache: make(map[string]freqTriple)}
}

// constants returns the k1,k2,k3 triple for a column, computing and
// caching the frequency analysis.
func (g *generator) constants(table string, col int) freqTriple {
	key := fmt.Sprintf("%s.%d", strings.ToLower(table), col)
	if t, ok := g.freqCache[key]; ok {
		if !t.ok && g.opts.RelaxedConstants && t.freqs[2] > 0 {
			t.ok = true
		}
		return t
	}
	t := analyzeColumn(g.src.Heap(table), col)
	g.freqCache[key] = t
	if !t.ok && g.opts.RelaxedConstants && t.freqs[2] > 0 {
		t.ok = true
	}
	return t
}

// analyzeColumn scans the column and picks the constant triple.
func analyzeColumn(h *storage.Heap, col int) freqTriple {
	if h == nil {
		return freqTriple{}
	}
	counts := make(map[string]*struct {
		v val.Value
		n int64
	})
	var key []byte
	h.Scan(nil, func(_ storage.RowID, r val.Row) bool {
		v := r[col]
		if v.IsNull() {
			return true
		}
		key = val.AppendKey(key[:0], v)
		if c := counts[string(key)]; c != nil {
			c.n++
		} else {
			counts[string(key)] = &struct {
				v val.Value
				n int64
			}{v, 1}
		}
		return true
	})
	if len(counts) < 3 {
		return freqTriple{}
	}
	type vc struct {
		v val.Value
		n int64
	}
	all := make([]vc, 0, len(counts))
	for _, c := range counts {
		all = append(all, vc{c.v, c.n})
	}
	// Sort by (frequency, value) so the choice is deterministic.
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n < all[j].n
		}
		return val.Compare(all[i].v, all[j].v) < 0
	})
	k1 := all[0]
	// k2 and k3: frequencies nearest one and two orders of magnitude
	// above k1's.
	pick := func(target int64) vc {
		best := all[len(all)-1]
		bestDiff := diffAbs(best.n, target)
		for _, c := range all {
			if d := diffAbs(c.n, target); d < bestDiff {
				best, bestDiff = c, d
			}
		}
		return best
	}
	k2 := pick(k1.n * 10)
	k3 := pick(k1.n * 100)
	t := freqTriple{ok: true}
	t.vals = [3]val.Value{k1.v, k2.v, k3.v}
	t.freqs = [3]int64{k1.n, k2.n, k3.n}
	// The triple must actually spread: require k3 well above k1. (Callers
	// may relax this via Options.RelaxedConstants.)
	if t.freqs[2] < t.freqs[0]*4 {
		t.ok = false
	}
	return t
}

func diffAbs(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// usableCols returns up to MaxColsPerTable indexable columns of the table
// (paper §4.1.1: non-indexable columns ignored, at most 4 per table), with
// fewer on large tables. Non-primary-key columns come first: the families
// probe exploratory access paths beyond the keys (SkTH3J explicitly joins
// "non-key columns"), and the restriction keeps that emphasis.
func (g *generator) usableCols(t *catalog.Table) []string {
	max := g.opts.MaxColsPerTable
	if h := g.src.Heap(t.Name); h != nil && h.NumRows() >= g.opts.LargeTableRows {
		max = max / 2
		if max < 2 {
			max = 2
		}
	}
	pk := make(map[string]bool)
	for _, c := range t.PrimaryKey {
		pk[strings.ToLower(c)] = true
	}
	var cols []string
	for _, c := range t.IndexableColumns() {
		if !pk[strings.ToLower(c)] {
			cols = append(cols, c)
		}
	}
	for _, c := range t.IndexableColumns() {
		if pk[strings.ToLower(c)] {
			cols = append(cols, c)
		}
	}
	if len(cols) > max {
		cols = cols[:max]
	}
	return cols
}

// groupByChoices enumerates GROUP BY column lists: prefixes of the usable
// columns excluding the given ones, up to MaxGroupByCols wide, in
// GroupByVariants lengths.
func (g *generator) groupByChoices(t *catalog.Table, exclude ...string) [][]string {
	ex := make(map[string]bool)
	for _, e := range exclude {
		ex[strings.ToLower(e)] = true
	}
	var avail []string
	for _, c := range g.usableCols(t) {
		if !ex[strings.ToLower(c)] {
			avail = append(avail, c)
		}
	}
	if len(avail) > g.opts.MaxGroupByCols {
		avail = avail[:g.opts.MaxGroupByCols]
	}
	var out [][]string
	for v := 0; v < g.opts.GroupByVariants; v++ {
		n := len(avail) - v
		if n < 1 {
			break
		}
		out = append(out, avail[:n])
	}
	if len(out) == 0 {
		out = append(out, nil)
	}
	return out
}

// domainPairs returns all (colA, colB) pairs of distinct-table columns in
// the same domain, each column restricted to the usable set.
func (g *generator) domainPairs() []pairRef {
	usable := make(map[string]bool)
	for _, t := range g.schema.Tables() {
		for _, c := range g.usableCols(t) {
			usable[strings.ToLower(t.Name+"."+c)] = true
		}
	}
	var out []pairRef
	for _, cols := range g.domainColumnsSorted() {
		for _, a := range cols {
			for _, b := range cols {
				if strings.EqualFold(a.Table, b.Table) {
					continue
				}
				if !usable[strings.ToLower(a.Table+"."+a.Column)] || !usable[strings.ToLower(b.Table+"."+b.Column)] {
					continue
				}
				out = append(out, pairRef{A: a, B: b})
			}
		}
	}
	return out
}

type pairRef struct {
	A, B catalog.ColumnRef
}

// domainColumnsSorted returns domain groups in deterministic order.
func (g *generator) domainColumnsSorted() [][]catalog.ColumnRef {
	m := g.schema.DomainColumns()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]catalog.ColumnRef, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// Sample draws n queries preserving the distribution of the given cost
// measure across the family (paper §4.1.1): the family is sorted by cost,
// cut into n equal-size strata, and one query is drawn per stratum.
func (f Family) Sample(n int, costOf func(sql string) float64, seed int64) Family {
	if len(f.Queries) <= n {
		return f
	}
	type qc struct {
		q Query
		c float64
	}
	qcs := make([]qc, len(f.Queries))
	for i, q := range f.Queries {
		qcs[i] = qc{q, costOf(q.SQL)}
	}
	sort.SliceStable(qcs, func(i, j int) bool { return qcs[i].c < qcs[j].c })
	rng := rand.New(rand.NewSource(seed))
	out := Family{Name: f.Name, UnrestrictedSize: f.UnrestrictedSize}
	for i := 0; i < n; i++ {
		lo := i * len(qcs) / n
		hi := (i + 1) * len(qcs) / n
		if hi <= lo {
			hi = lo + 1
		}
		out.Queries = append(out.Queries, qcs[lo+rng.Intn(hi-lo)].q)
	}
	return out
}

// SQLs returns the query texts.
func (f Family) SQLs() []string {
	out := make([]string, len(f.Queries))
	for i, q := range f.Queries {
		out[i] = q.SQL
	}
	return out
}

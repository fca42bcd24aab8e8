// Package stats implements the statistics the optimizer relies on:
// per-table row counts, per-column distinct counts, most-common-value
// lists, and equi-depth histograms.
//
// It also implements the derivation of hypothetical statistics for
// configurations that do not exist yet — the "what-if" path that the
// paper's Section 5 identifies as the weak link of commercial
// recommenders. Hypothetical derivation is necessarily cruder than
// collection (it cannot observe the data through the hypothetical index),
// and that gap is modeled explicitly via the independence assumption on
// composite-key distinct counts and a clustering assumption parameter.
package stats

import (
	"bytes"
	"math"
	"slices"
	"sort"

	"repro/internal/storage"
	"repro/internal/val"
)

// maxMCV is the number of most-common values tracked per column.
const maxMCV = 50

// histBuckets is the number of equi-depth histogram buckets per column.
const histBuckets = 32

// ValueCount is a value with its frequency.
type ValueCount struct {
	Value val.Value
	Count int64
}

// Bucket is one equi-depth histogram bucket: values v with
// Lo < v <= Hi (the first bucket includes Lo).
type Bucket struct {
	Lo, Hi   val.Value
	Count    int64
	Distinct int64
}

// ColumnStats summarizes one column.
type ColumnStats struct {
	NDV   int64 // number of distinct non-null values
	Nulls int64
	Min   val.Value
	Max   val.Value
	// MCV holds the most common values, descending by frequency.
	MCV []ValueCount
	// mcvTotal is the total count covered by MCV.
	mcvTotal int64
	// Hist is an equi-depth histogram over all non-null values.
	Hist []Bucket
}

// TableStats summarizes one table.
type TableStats struct {
	Rows  int64
	Pages int64
	Cols  []ColumnStats
}

// Collect builds full statistics for the heap with a single scan per
// column. It is the RUNSTATS of the benchmark engine.
func Collect(h *storage.Heap) *TableStats {
	ncols := len(h.Table.Columns)
	ts := &TableStats{Rows: h.NumRows(), Pages: h.Pages(), Cols: make([]ColumnStats, ncols)}

	counts := make([]valueCounts, ncols)
	for i := range counts {
		counts[i] = valueCounts{ints: map[int64]int64{}, strs: map[string]int64{}, other: map[string]*ValueCount{}}
	}
	var key []byte
	h.Scan(nil, func(_ storage.RowID, r val.Row) bool {
		for i, v := range r {
			c := &counts[i]
			switch v.K {
			case val.KindNull:
				ts.Cols[i].Nulls++
			case val.KindInt:
				c.ints[v.I]++
			case val.KindString:
				c.strs[v.Str]++
			default:
				key = val.AppendKey(key[:0], v)
				if vc := c.other[string(key)]; vc != nil {
					vc.Count++
				} else {
					c.other[string(key)] = &ValueCount{Value: v, Count: 1}
				}
			}
		}
		return true
	})

	for i := range ts.Cols {
		cs := &ts.Cols[i]
		vcs := counts[i].sorted()
		cs.NDV = int64(len(vcs))
		if len(vcs) == 0 {
			continue
		}
		cs.Min = vcs[0].Value
		cs.Max = vcs[len(vcs)-1].Value
		cs.Hist = buildEquiDepth(vcs)
		cs.MCV = topByCount(vcs)
		for _, vc := range cs.MCV {
			cs.mcvTotal += vc.Count
		}
	}
	return ts
}

// valueCounts tallies one column's non-null values. Ints and strings are
// counted in maps keyed by the value itself; floats, and a value of any
// other kind, by their AppendKey bytes. Either way two values are one
// value exactly when their AppendKey bytes are equal.
type valueCounts struct {
	ints  map[int64]int64
	strs  map[string]int64
	other map[string]*ValueCount
}

// sorted returns the column's distinct values in value order. A column of
// ints or of strings alone sorts its map keys natively, which is Compare's
// order on one kind; any other column sorts with compareTotal.
func (c *valueCounts) sorted() []ValueCount {
	n := len(c.ints) + len(c.strs) + len(c.other)
	switch n {
	case len(c.ints):
		return sortedCounts(c.ints, val.Int)
	case len(c.strs):
		return sortedCounts(c.strs, val.String)
	}
	vcs := make([]ValueCount, 0, n)
	for v, cnt := range c.ints {
		vcs = append(vcs, ValueCount{Value: val.Int(v), Count: cnt})
	}
	for v, cnt := range c.strs {
		vcs = append(vcs, ValueCount{Value: val.String(v), Count: cnt})
	}
	for _, vc := range c.other {
		vcs = append(vcs, *vc)
	}
	slices.SortFunc(vcs, func(a, b ValueCount) int { return compareTotal(a.Value, b.Value) })
	return vcs
}

// sortedCounts lists a typed count map in ascending key order.
func sortedCounts[K int64 | string](m map[K]int64, value func(K) val.Value) []ValueCount {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vcs := make([]ValueCount, len(keys))
	for i, k := range keys {
		vcs[i] = ValueCount{Value: value(k), Count: m[k]}
	}
	return vcs
}

// compareTotal is val.Compare with its ties between distinct values — Int
// 1 and Float 1.0, or -0 and +0 — broken by their AppendKey bytes, so that
// a column's distinct values have exactly one order.
func compareTotal(a, b val.Value) int {
	if c := val.Compare(a, b); c != 0 {
		return c
	}
	return bytes.Compare(val.AppendKey(nil, a), val.AppendKey(nil, b))
}

// topByCount selects the maxMCV most frequent of the value-ordered vcs,
// most frequent first. A later value never displaces an equal count, so
// ties stay in value order.
func topByCount(vcs []ValueCount) []ValueCount {
	top := make([]ValueCount, 0, min(maxMCV, len(vcs)))
	for _, vc := range vcs {
		if len(top) == maxMCV && vc.Count <= top[maxMCV-1].Count {
			continue
		}
		j := sort.Search(len(top), func(k int) bool { return top[k].Count < vc.Count })
		if len(top) < maxMCV {
			top = append(top, ValueCount{})
		}
		copy(top[j+1:], top[j:len(top)-1])
		top[j] = vc
	}
	return top
}

// buildEquiDepth partitions the sorted (value, count) list into buckets of
// roughly equal row count.
func buildEquiDepth(sorted []ValueCount) []Bucket {
	var total int64
	for _, vc := range sorted {
		total += vc.Count
	}
	target := total / histBuckets
	if target < 1 {
		target = 1
	}
	out := make([]Bucket, 0, histBuckets)
	cur := Bucket{Lo: sorted[0].Value}
	for _, vc := range sorted {
		cur.Count += vc.Count
		cur.Distinct++
		cur.Hi = vc.Value
		if cur.Count >= target && len(out) < histBuckets-1 {
			out = append(out, cur)
			cur = Bucket{Lo: vc.Value}
		}
	}
	if cur.Count > 0 {
		out = append(out, cur)
	}
	return out
}

// EqSelectivity estimates the fraction of rows with column = v.
func (ts *TableStats) EqSelectivity(col int, v val.Value) float64 {
	if ts.Rows == 0 {
		return 0
	}
	cs := &ts.Cols[col]
	if v.IsNull() || cs.NDV == 0 {
		return 0
	}
	for _, vc := range cs.MCV {
		if val.Equal(vc.Value, v) {
			return float64(vc.Count) / float64(ts.Rows)
		}
	}
	// Outside the MCV list: uniform over the remaining distinct values.
	rest := ts.Rows - cs.mcvTotal - cs.Nulls
	restNDV := cs.NDV - int64(len(cs.MCV))
	if restNDV <= 0 || rest <= 0 {
		// All values are in the MCV list; an unseen constant matches nothing,
		// but stay safely above zero for cost arithmetic.
		return 0.5 / float64(ts.Rows)
	}
	return float64(rest) / float64(restNDV) / float64(ts.Rows)
}

// RangeSelectivity estimates the fraction of rows with column op v, for
// op in < <= > >=.
func (ts *TableStats) RangeSelectivity(col int, op string, v val.Value) float64 {
	if ts.Rows == 0 {
		return 0
	}
	cs := &ts.Cols[col]
	nonNull := ts.Rows - cs.Nulls
	if nonNull <= 0 || len(cs.Hist) == 0 {
		return 0
	}
	// Cumulative rows with value <= v, from the histogram.
	var le float64
	for _, b := range cs.Hist {
		if val.Compare(b.Hi, v) <= 0 {
			le += float64(b.Count)
			continue
		}
		if val.Compare(b.Lo, v) >= 0 && val.Compare(cs.Min, v) != 0 {
			break
		}
		// v falls inside this bucket: interpolate.
		le += float64(b.Count) * bucketFraction(b, v)
		break
	}
	eq := ts.EqSelectivity(col, v) * float64(ts.Rows)
	var rows float64
	switch op {
	case "<=":
		rows = le
	case "<":
		rows = le - eq
	case ">":
		rows = float64(nonNull) - le
	case ">=":
		rows = float64(nonNull) - le + eq
	case "<>":
		rows = float64(nonNull) - eq
	default:
		rows = float64(nonNull) / 3
	}
	if rows < 0 {
		rows = 0
	}
	if rows > float64(nonNull) {
		rows = float64(nonNull)
	}
	return rows / float64(ts.Rows)
}

// bucketFraction estimates how much of bucket b lies at or below v.
func bucketFraction(b Bucket, v val.Value) float64 {
	lo, hi, x := b.Lo.AsFloat(), b.Hi.AsFloat(), v.AsFloat()
	if b.Hi.K == val.KindString {
		// No numeric interpolation for strings: assume half.
		return 0.5
	}
	if hi <= lo {
		return 1
	}
	f := (x - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

// Selectivity estimates the fraction of rows satisfying column op v.
func (ts *TableStats) Selectivity(col int, op string, v val.Value) float64 {
	switch op {
	case "=":
		return ts.EqSelectivity(col, v)
	default:
		return ts.RangeSelectivity(col, op, v)
	}
}

// CompositeNDV estimates the number of distinct values of a column
// combination under the attribute-independence assumption, damped and
// capped at the row count. This is exactly the kind of derived statistic
// a what-if interface must rely on for hypothetical indexes.
func (ts *TableStats) CompositeNDV(cols []int) int64 {
	if len(cols) == 0 {
		return 1
	}
	ndv := float64(ts.Cols[cols[0]].NDV)
	for _, c := range cols[1:] {
		n := float64(ts.Cols[c].NDV)
		if n < 1 {
			n = 1
		}
		// Damped product: full independence overestimates badly, so each
		// additional column contributes its square root (a common
		// commercial-optimizer heuristic).
		ndv *= math.Sqrt(n)
	}
	if ndv > float64(ts.Rows) {
		ndv = float64(ts.Rows)
	}
	if ndv < 1 {
		ndv = 1
	}
	return int64(ndv)
}

// Provider supplies table statistics by name. The engine implements it
// for actual configurations; hypothetical wrappers implement it for
// what-if calls.
type Provider interface {
	// TableStats returns statistics for the named base table or
	// materialized view, or nil if unknown/not collected.
	TableStats(name string) *TableStats
}

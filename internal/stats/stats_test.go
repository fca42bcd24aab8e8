package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/val"
)

func makeHeap(t *testing.T, n int, valueOf func(i int) val.Row) *storage.Heap {
	t.Helper()
	tab := catalog.MustTable("t",
		[]catalog.Column{
			{Name: "a", Type: catalog.TypeInt, Indexable: true},
			{Name: "b", Type: catalog.TypeString, Indexable: true, AvgWidth: 10},
		},
		[]string{"a"},
	)
	h := storage.NewHeap(tab)
	for i := 0; i < n; i++ {
		if _, err := h.Insert(nil, valueOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestCollectBasics(t *testing.T) {
	h := makeHeap(t, 1000, func(i int) val.Row {
		return val.Row{val.Int(int64(i % 100)), val.String("s")}
	})
	ts := Collect(h)
	if ts.Rows != 1000 {
		t.Fatalf("Rows = %d", ts.Rows)
	}
	if ts.Cols[0].NDV != 100 {
		t.Fatalf("NDV(a) = %d, want 100", ts.Cols[0].NDV)
	}
	if ts.Cols[1].NDV != 1 {
		t.Fatalf("NDV(b) = %d, want 1", ts.Cols[1].NDV)
	}
	if ts.Cols[0].Min.I != 0 || ts.Cols[0].Max.I != 99 {
		t.Fatalf("min/max = %v/%v", ts.Cols[0].Min, ts.Cols[0].Max)
	}
}

func TestNullsTracked(t *testing.T) {
	h := makeHeap(t, 100, func(i int) val.Row {
		if i%4 == 0 {
			return val.Row{val.Null(), val.String("x")}
		}
		return val.Row{val.Int(int64(i)), val.String("x")}
	})
	ts := Collect(h)
	if ts.Cols[0].Nulls != 25 {
		t.Fatalf("Nulls = %d, want 25", ts.Cols[0].Nulls)
	}
	if ts.Cols[0].NDV != 75 {
		t.Fatalf("NDV = %d, want 75", ts.Cols[0].NDV)
	}
	if s := ts.EqSelectivity(0, val.Null()); s != 0 {
		t.Fatalf("NULL selectivity = %v", s)
	}
}

func TestEqSelectivityMCV(t *testing.T) {
	// Value 7 appears 500 times out of 1000; it must be in the MCV list.
	h := makeHeap(t, 1000, func(i int) val.Row {
		v := int64(i)
		if i < 500 {
			v = 7
		}
		return val.Row{val.Int(v), val.String("x")}
	})
	ts := Collect(h)
	if s := ts.EqSelectivity(0, val.Int(7)); s < 0.49 || s > 0.51 {
		t.Fatalf("MCV selectivity = %v, want ~0.5", s)
	}
	// A rare value: roughly 1/1000.
	if s := ts.EqSelectivity(0, val.Int(900)); s <= 0 || s > 0.01 {
		t.Fatalf("rare-value selectivity = %v", s)
	}
}

func TestRangeSelectivityUniform(t *testing.T) {
	h := makeHeap(t, 10_000, func(i int) val.Row {
		return val.Row{val.Int(int64(i)), val.String("x")}
	})
	ts := Collect(h)
	cases := []struct {
		op   string
		v    int64
		want float64
	}{
		{"<", 5000, 0.5},
		{"<=", 2500, 0.25},
		{">", 9000, 0.1},
		{">=", 1000, 0.9},
	}
	for _, c := range cases {
		got := ts.RangeSelectivity(0, c.op, val.Int(c.v))
		if got < c.want-0.05 || got > c.want+0.05 {
			t.Errorf("sel(a %s %d) = %.3f, want ~%.2f", c.op, c.v, got, c.want)
		}
	}
}

// TestSelectivityAccuracy is the property the optimizer depends on:
// estimated equality selectivity is within a small factor of the truth
// for Zipf-like skewed data.
func TestSelectivityAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	freq := make(map[int64]int64)
	h := makeHeap(t, 20_000, func(i int) val.Row {
		// Skew: value v chosen with probability ∝ 1/(v+1).
		v := int64(rng.Intn(100))
		v = v * v / 100 // quadratic skew toward 0..99
		freq[v]++
		return val.Row{val.Int(v), val.String("x")}
	})
	ts := Collect(h)
	for _, v := range []int64{0, 1, 16, 49, 98} {
		if freq[v] == 0 {
			continue
		}
		truth := float64(freq[v]) / 20000
		got := ts.EqSelectivity(0, val.Int(v))
		if got < truth/3 || got > truth*3 {
			t.Errorf("sel(=%d): got %.5f, truth %.5f (off by >3x)", v, got, truth)
		}
	}
}

func TestHistogramInvariants(t *testing.T) {
	h := makeHeap(t, 5000, func(i int) val.Row {
		return val.Row{val.Int(int64(i % 500)), val.String("x")}
	})
	ts := Collect(h)
	var total int64
	hist := ts.Cols[0].Hist
	if len(hist) == 0 {
		t.Fatal("no histogram")
	}
	for i, b := range hist {
		total += b.Count
		if b.Count <= 0 || b.Distinct <= 0 {
			t.Fatalf("bucket %d empty: %+v", i, b)
		}
		if i > 0 && val.Compare(hist[i-1].Hi, b.Hi) > 0 {
			t.Fatalf("bucket bounds not increasing at %d", i)
		}
	}
	if total != 5000 {
		t.Fatalf("histogram covers %d rows, want 5000", total)
	}
}

func TestCompositeNDV(t *testing.T) {
	h := makeHeap(t, 10_000, func(i int) val.Row {
		return val.Row{val.Int(int64(i % 100)), val.String(string(rune('a' + i%26)))}
	})
	ts := Collect(h)
	single := ts.CompositeNDV([]int{0})
	if single != 100 {
		t.Fatalf("single-column composite NDV = %d", single)
	}
	both := ts.CompositeNDV([]int{0, 1})
	if both <= single {
		t.Fatalf("composite NDV %d should exceed single %d", both, single)
	}
	if both > ts.Rows {
		t.Fatalf("composite NDV %d exceeds row count", both)
	}
}

func TestSelectivityBounds(t *testing.T) {
	h := makeHeap(t, 1000, func(i int) val.Row {
		return val.Row{val.Int(int64(i)), val.String("x")}
	})
	ts := Collect(h)
	for _, op := range []string{"=", "<", "<=", ">", ">=", "<>"} {
		for _, v := range []int64{-10, 0, 500, 999, 5000} {
			s := ts.Selectivity(0, op, val.Int(v))
			if s < 0 || s > 1 {
				t.Errorf("sel(a %s %d) = %v out of [0,1]", op, v, s)
			}
		}
	}
}

func TestEmptyTable(t *testing.T) {
	h := makeHeap(t, 0, nil)
	ts := Collect(h)
	if ts.Rows != 0 {
		t.Fatal("rows")
	}
	if s := ts.EqSelectivity(0, val.Int(1)); s != 0 {
		t.Fatalf("selectivity on empty table = %v", s)
	}
	if s := ts.RangeSelectivity(0, "<", val.Int(1)); s != 0 {
		t.Fatalf("range selectivity on empty table = %v", s)
	}
	if ndv := ts.CompositeNDV([]int{0, 1}); ndv != 1 {
		t.Fatalf("composite NDV on empty table = %d", ndv)
	}
}

// referenceCollect is Collect as it was before the typed counting: every
// value keyed by its AppendKey bytes, sorted by value with sort.Sort and
// then copied and sorted again by count. TestCollectMatchesReference holds
// Collect to its output.
func referenceCollect(h *storage.Heap) *TableStats {
	ncols := len(h.Table.Columns)
	ts := &TableStats{Rows: h.NumRows(), Pages: h.Pages(), Cols: make([]ColumnStats, ncols)}

	counts := make([]map[string]*ValueCount, ncols)
	for i := range counts {
		counts[i] = make(map[string]*ValueCount)
	}
	var key []byte
	h.Scan(nil, func(_ storage.RowID, r val.Row) bool {
		for i, v := range r {
			if v.IsNull() {
				ts.Cols[i].Nulls++
				continue
			}
			key = val.AppendKey(key[:0], v)
			if vc := counts[i][string(key)]; vc != nil {
				vc.Count++
			} else {
				counts[i][string(key)] = &ValueCount{Value: v, Count: 1}
			}
		}
		return true
	})

	for i := range ts.Cols {
		cs := &ts.Cols[i]
		vcs := make([]ValueCount, 0, len(counts[i]))
		for _, vc := range counts[i] {
			vcs = append(vcs, *vc)
		}
		cs.NDV = int64(len(vcs))
		if len(vcs) == 0 {
			continue
		}
		sort.Sort(byValue(vcs))
		cs.Min = vcs[0].Value
		cs.Max = vcs[len(vcs)-1].Value
		cs.Hist = buildEquiDepth(vcs)

		byFreq := append([]ValueCount(nil), vcs...)
		sort.Sort(byCountDesc(byFreq))
		n := maxMCV
		if n > len(byFreq) {
			n = len(byFreq)
		}
		cs.MCV = byFreq[:n:n]
		for _, vc := range cs.MCV {
			cs.mcvTotal += vc.Count
		}
	}
	return ts
}

type byValue []ValueCount

func (s byValue) Len() int           { return len(s) }
func (s byValue) Swap(a, b int)      { s[a], s[b] = s[b], s[a] }
func (s byValue) Less(a, b int) bool { return val.Compare(s[a].Value, s[b].Value) < 0 }

// byCountDesc ranks most-frequent first, ties by value order.
type byCountDesc []ValueCount

func (s byCountDesc) Len() int      { return len(s) }
func (s byCountDesc) Swap(a, b int) { s[a], s[b] = s[b], s[a] }
func (s byCountDesc) Less(a, b int) bool {
	if s[a].Count != s[b].Count {
		return s[a].Count > s[b].Count
	}
	return val.Compare(s[a].Value, s[b].Value) < 0
}

// heapLoader collects generated rows into one heap per table.
type heapLoader struct {
	schema *catalog.Schema
	heaps  map[string]*storage.Heap
	order  []string
}

func (l *heapLoader) Load(table string, rows []val.Row) error {
	h := l.heaps[table]
	if h == nil {
		t := l.schema.Table(table)
		if t == nil {
			return fmt.Errorf("unknown table %s", table)
		}
		h = storage.NewHeap(t)
		l.heaps[table] = h
		l.order = append(l.order, table)
	}
	for _, r := range rows {
		if _, err := h.Insert(nil, r); err != nil {
			return err
		}
	}
	return nil
}

// generated returns every table of the NREF, SkTH and UnTH databases at
// scale 0.0002, seed 42, named "<db>/<table>".
func generated(t *testing.T) map[string]*storage.Heap {
	t.Helper()
	const sf, seed = 0.0002, 42
	out := map[string]*storage.Heap{}
	for _, db := range []struct {
		name   string
		schema *catalog.Schema
		gen    func(datagen.Loader) error
	}{
		{"NREF", catalog.NREF(), func(l datagen.Loader) error {
			return datagen.GenerateNREF(l, datagen.NREFOptions{ScaleFactor: sf, Seed: seed})
		}},
		{"SkTH", catalog.TPCH(), func(l datagen.Loader) error {
			return datagen.GenerateTPCH(l, datagen.TPCHOptions{ScaleFactor: sf, Seed: seed, Skew: true, ZipfS: 1})
		}},
		{"UnTH", catalog.TPCH(), func(l datagen.Loader) error {
			return datagen.GenerateTPCH(l, datagen.TPCHOptions{ScaleFactor: sf, Seed: seed})
		}},
	} {
		l := &heapLoader{schema: db.schema, heaps: map[string]*storage.Heap{}}
		if err := db.gen(l); err != nil {
			t.Fatal(err)
		}
		for _, name := range l.order {
			out[db.name+"/"+name] = l.heaps[name]
		}
	}
	return out
}

// edgeHeap holds the values a generator never produces: NULLs, MinInt64,
// the empty string, strings with 0x00 bytes and a float column.
func edgeHeap(t *testing.T) *storage.Heap {
	t.Helper()
	tab := catalog.MustTable("edge",
		[]catalog.Column{
			{Name: "i", Type: catalog.TypeInt},
			{Name: "s", Type: catalog.TypeString, AvgWidth: 4},
			{Name: "f", Type: catalog.TypeFloat},
			{Name: "n", Type: catalog.TypeInt},
		},
		nil,
	)
	ints := []val.Value{val.Null(), val.Int(math.MinInt64), val.Int(math.MaxInt64), val.Int(0), val.Int(-1), val.Int(7)}
	strs := []val.Value{val.Null(), val.String(""), val.String("a"), val.String("a\x00"), val.String("a\x00b"), val.String("\x00"), val.String("b")}
	floats := []val.Value{val.Null(), val.Float(-2.5), val.Float(0.125), val.Float(1e300), val.Float(math.Inf(-1)), val.Float(3)}
	h := storage.NewHeap(tab)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		r := val.Row{ints[rng.Intn(len(ints))], strs[rng.Intn(len(strs))], floats[rng.Intn(len(floats))], val.Null()}
		if i%3 == 0 {
			r[0] = val.Int(int64(i)) // a long tail beyond the MCV list
		}
		if _, err := h.Insert(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestCollectMatchesReference pins Collect's whole output — MCV lists,
// histograms and the MCV total included — to referenceCollect's, on every
// generated table and on edge-case values.
func TestCollectMatchesReference(t *testing.T) {
	heaps := generated(t)
	heaps["edge"] = edgeHeap(t)
	for name, h := range heaps {
		if got, want := Collect(h), referenceCollect(h); !reflect.DeepEqual(got, want) {
			for i := range want.Cols {
				if !reflect.DeepEqual(got.Cols[i], want.Cols[i]) {
					t.Errorf("%s column %s: Collect = %+v\nreference = %+v", name, h.Table.Columns[i].Name, got.Cols[i], want.Cols[i])
				}
			}
			if got.Rows != want.Rows || got.Pages != want.Pages {
				t.Errorf("%s: rows/pages %d/%d, reference %d/%d", name, got.Rows, got.Pages, want.Rows, want.Pages)
			}
		}
	}
}

// TestCollectOrderIsTotal runs Collect over a column whose distinct values
// tie under val.Compare (Int 1 and Float 1.0, -0 and +0): their order, and
// so MIN, MAX, the histogram and the MCV ties, must not follow map
// iteration order.
func TestCollectOrderIsTotal(t *testing.T) {
	tab := catalog.MustTable("ties", []catalog.Column{{Name: "x", Type: catalog.TypeFloat}}, nil)
	h := storage.NewHeap(tab)
	for i := 0; i < 400; i++ {
		var v val.Value
		switch i % 4 {
		case 0:
			v = val.Int(1)
		case 1:
			v = val.Float(1)
		case 2:
			v = val.Float(math.Copysign(0, -1))
		default:
			v = val.Float(0)
		}
		if _, err := h.Insert(nil, val.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	// Rendered, not DeepEqual: == cannot tell -0 from +0.
	first := fmt.Sprintf("%+v", *Collect(h))
	if ndv := Collect(h).Cols[0].NDV; ndv != 4 {
		t.Fatalf("NDV = %d, want 4", ndv)
	}
	for i := 0; i < 20; i++ {
		if got := fmt.Sprintf("%+v", *Collect(h)); got != first {
			t.Fatalf("run %d: Collect = %s, first run %s", i, got, first)
		}
	}
}

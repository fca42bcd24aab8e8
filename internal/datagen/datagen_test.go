package datagen

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/val"
)

// memSink collects generated rows per table.
type memSink struct {
	schema *catalog.Schema
	heaps  map[string]*storage.Heap
}

func newSink(s *catalog.Schema) *memSink {
	m := &memSink{schema: s, heaps: make(map[string]*storage.Heap)}
	for _, t := range s.Tables() {
		m.heaps[strings.ToLower(t.Name)] = storage.NewHeap(t)
	}
	return m
}

func (m *memSink) Load(table string, rows []val.Row) error {
	h := m.heaps[strings.ToLower(table)]
	for _, r := range rows {
		if _, err := h.Insert(nil, r); err != nil {
			return err
		}
	}
	return nil
}

func (m *memSink) Heap(table string) *storage.Heap { return m.heaps[strings.ToLower(table)] }

func TestZipfDistribution(t *testing.T) {
	z := NewZipf(100, 1)
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, 100)
	const n = 200_000
	for i := 0; i < n; i++ {
		counts[z.Next(rng)]++
	}
	// Empirical frequency of rank r must be ∝ 1/(r+1) within tolerance.
	h := 0.0
	for i := 1; i <= 100; i++ {
		h += 1 / float64(i)
	}
	for _, r := range []int{0, 1, 9, 49, 99} {
		want := float64(n) / (float64(r+1) * h)
		got := float64(counts[r])
		if got < want*0.8-20 || got > want*1.2+20 {
			t.Errorf("rank %d: got %d samples, want ~%.0f", r, counts[r], want)
		}
	}
}

func TestZipfHigherSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z1 := NewZipf(1000, 0.5)
	z2 := NewZipf(1000, 1.5)
	top1, top2 := 0, 0
	for i := 0; i < 50_000; i++ {
		if z1.Next(rng) == 0 {
			top1++
		}
		if z2.Next(rng) == 0 {
			top2++
		}
	}
	if top2 <= top1 {
		t.Errorf("higher exponent must concentrate more: s=0.5 %d vs s=1.5 %d", top1, top2)
	}
}

func TestSkewedPickCoversTail(t *testing.T) {
	p := NewSkewedPick(100, 300, 1, 0.4)
	if p.N() != 400 {
		t.Fatalf("N = %d", p.N())
	}
	rng := rand.New(rand.NewSource(3))
	tail := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		if p.Next(rng) >= 100 {
			tail++
		}
	}
	frac := float64(tail) / n
	if math.Abs(frac-0.4) > 0.03 {
		t.Errorf("tail fraction = %.3f, want ~0.4", frac)
	}
}

func TestGenerateNREFShape(t *testing.T) {
	s := catalog.NREF()
	sink := newSink(s)
	if err := GenerateNREF(sink, NREFOptions{ScaleFactor: 0.0001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	full := catalog.NREFFullScaleRows()
	for _, tab := range s.Tables() {
		got := sink.Heap(tab.Name).NumRows()
		want := int64(float64(full[tab.Name]) * 0.0001)
		if want < 1 {
			want = 1
		}
		if got != want {
			t.Errorf("%s rows = %d, want %d", tab.Name, got, want)
		}
	}
	// The paper's Example 1 constant must exist in source.p_name.
	found := false
	sink.Heap("source").Scan(nil, func(_ storage.RowID, r val.Row) bool {
		if r[4].Str == "Simian Virus 40" {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Error("'Simian Virus 40' missing from source.p_name")
	}
}

// TestNREFFrequencySpectrum verifies the property the workload generator's
// constant selection relies on: join-column frequencies span orders of
// magnitude down to 1.
func TestNREFFrequencySpectrum(t *testing.T) {
	s := catalog.NREF()
	sink := newSink(s)
	if err := GenerateNREF(sink, NREFOptions{ScaleFactor: 0.0005, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	tab := s.Table("taxonomy")
	col := tab.ColumnIndex("taxon_id")
	counts := make(map[int64]int64)
	sink.Heap("taxonomy").Scan(nil, func(_ storage.RowID, r val.Row) bool {
		counts[r[col].I]++
		return true
	})
	var min, max int64 = 1 << 60, 0
	for _, n := range counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min > 3 {
		t.Errorf("no rare taxon values (min freq %d)", min)
	}
	if max < min*20 {
		t.Errorf("frequency spectrum too flat: min %d max %d", min, max)
	}
}

func TestGenerateTPCHShape(t *testing.T) {
	s := catalog.TPCH()
	sink := newSink(s)
	if err := GenerateTPCH(sink, TPCHOptions{ScaleFactor: 0.0001, Seed: 5, Skew: true, ZipfS: 1}); err != nil {
		t.Fatal(err)
	}
	if got := sink.Heap("region").NumRows(); got != 5 {
		t.Errorf("region rows = %d (fixed-size per spec)", got)
	}
	if got := sink.Heap("nation").NumRows(); got != 25 {
		t.Errorf("nation rows = %d", got)
	}
	// Lineitem joins partsupp through its composite FK.
	pairs := make(map[[2]int64]bool)
	sink.Heap("partsupp").Scan(nil, func(_ storage.RowID, r val.Row) bool {
		pairs[[2]int64{r[0].I, r[1].I}] = true
		return true
	})
	misses := 0
	sink.Heap("lineitem").Scan(nil, func(_ storage.RowID, r val.Row) bool {
		if !pairs[[2]int64{r[1].I, r[2].I}] {
			misses++
		}
		return true
	})
	if misses > 0 {
		t.Errorf("%d lineitem rows reference nonexistent partsupp pairs", misses)
	}
}

func TestSkewedVsUniformTPCH(t *testing.T) {
	s := catalog.TPCH()
	freqTop := func(skew bool) int {
		sink := newSink(s)
		if err := GenerateTPCH(sink, TPCHOptions{ScaleFactor: 0.0002, Seed: 5, Skew: skew, ZipfS: 1}); err != nil {
			t.Fatal(err)
		}
		counts := make(map[int64]int)
		col := s.Table("lineitem").ColumnIndex("l_partkey")
		top := 0
		sink.Heap("lineitem").Scan(nil, func(_ storage.RowID, r val.Row) bool {
			counts[r[col].I]++
			if counts[r[col].I] > top {
				top = counts[r[col].I]
			}
			return true
		})
		return top
	}
	if skewTop, uniTop := freqTop(true), freqTop(false); skewTop < uniTop*3 {
		t.Errorf("skewed top frequency %d should far exceed uniform %d", skewTop, uniTop)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := catalog.NREF()
	sink := newSink(s)
	if err := GenerateNREF(sink, NREFOptions{ScaleFactor: 0.0001, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sink.Heap("protein")); err != nil {
		t.Fatal(err)
	}
	sink2 := newSink(s)
	if err := ReadCSV(&buf, s.Table("protein"), sink2); err != nil {
		t.Fatal(err)
	}
	h1, h2 := sink.Heap("protein"), sink2.Heap("protein")
	if h1.NumRows() != h2.NumRows() {
		t.Fatalf("row count %d vs %d", h1.NumRows(), h2.NumRows())
	}
	for i := int64(0); i < h1.NumRows(); i++ {
		if val.CompareRows(h1.Get(storage.RowID(i)), h2.Get(storage.RowID(i))) != 0 {
			t.Fatalf("row %d differs after round trip", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := catalog.NREF()
	sink := newSink(s)
	if err := ReadCSV(strings.NewReader("a,b\n1,2\n"), s.Table("protein"), sink); err == nil {
		t.Error("column-count mismatch must fail")
	}
	bad := "nref_id,p_name,last_updated,sequence,length\nNF1,p,notanint,SEQ,3\n"
	if err := ReadCSV(strings.NewReader(bad), s.Table("protein"), sink); err == nil {
		t.Error("type mismatch must fail")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	s := catalog.NREF()
	a, b := newSink(s), newSink(s)
	if err := GenerateNREF(a, NREFOptions{ScaleFactor: 0.0001, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if err := GenerateNREF(b, NREFOptions{ScaleFactor: 0.0001, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	ha, hb := a.Heap("taxonomy"), b.Heap("taxonomy")
	if ha.NumRows() != hb.NumRows() {
		t.Fatal("row counts differ")
	}
	for i := int64(0); i < ha.NumRows(); i += 97 {
		if val.CompareRows(ha.Get(storage.RowID(i)), hb.Get(storage.RowID(i))) != 0 {
			t.Fatalf("row %d differs across identical seeds", i)
		}
	}
}

// ReadCSV is TestCSVRoundTrip's reader: it loads CSV rows (with a
// header, which is validated against the table's column names) into the
// loader.
func ReadCSV(r io.Reader, t *catalog.Table, into Loader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("datagen: reading CSV header: %w", err)
	}
	if len(header) != len(t.Columns) {
		return fmt.Errorf("datagen: CSV has %d columns, table %s has %d",
			len(header), t.Name, len(t.Columns))
	}
	var rows []val.Row
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		row := make(val.Row, len(rec))
		for i, f := range rec {
			v, err := parseValue(t.Columns[i].Type, f)
			if err != nil {
				return fmt.Errorf("datagen: column %s: %w", t.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
		if len(rows) == 10000 {
			if err := into.Load(t.Name, rows); err != nil {
				return err
			}
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		return into.Load(t.Name, rows)
	}
	return nil
}

func parseValue(ty catalog.Type, field string) (val.Value, error) {
	if field == "NULL" {
		return val.Null(), nil
	}
	switch ty {
	case catalog.TypeInt:
		i, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return val.Value{}, err
		}
		return val.Int(i), nil
	case catalog.TypeFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return val.Value{}, err
		}
		return val.Float(f), nil
	default:
		return val.String(field), nil
	}
}

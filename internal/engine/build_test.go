package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/val"
)

// generatedEngine loads one of the paper's databases — NREF, SkTH or UnTH
// — at the given scale with seed 42, without statistics or indexes.
func generatedEngine(tb testing.TB, db string, scale float64) *Engine {
	tb.Helper()
	var e *Engine
	var err error
	switch db {
	case "NREF":
		e = New(catalog.NREF(), scale, SystemA())
		err = datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: scale, Seed: 42})
	case "SkTH":
		e = New(catalog.TPCH(), scale, SystemC())
		err = datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: scale, Seed: 42, Skew: true, ZipfS: 1})
	case "UnTH":
		e = New(catalog.TPCH(), scale, SystemC())
		err = datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: scale, Seed: 42})
	}
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// indexColumns resolves an index definition on a base table to its heap
// and key column offsets.
func indexColumns(tb testing.TB, e *Engine, d conf.IndexDef) (*storage.Heap, []int) {
	tb.Helper()
	tab := e.Schema.Table(d.Table)
	cols := make([]int, len(d.Columns))
	for i, cn := range d.Columns {
		if cols[i] = tab.ColumnIndex(cn); cols[i] < 0 {
			tb.Fatalf("no column %s in %s", cn, d.Table)
		}
	}
	return e.Heap(d.Table), cols
}

// insertionKeyNDV counts distinct key prefixes by walking a tree in key
// order, as the index build did before it sorted its keys itself.
func insertionKeyNDV(tree *btree.Tree, width int) []int64 {
	ndv := make([]int64, width)
	var prev val.Row
	it := tree.Scan()
	for {
		k, _, ok := it.Next()
		if !ok {
			return ndv
		}
		changed := prev == nil
		for i := 0; i < width; i++ {
			changed = changed || val.Compare(prev[i], k[i]) != 0
			if changed {
				ndv[i]++
			}
		}
		prev = k
	}
}

// TestBulkBuildMatchesInsertion is the fence on the sorted index build:
// for every index of 1C (which holds P's) on the paper's three databases
// at two scales, and for key columns that mix kinds and NULLs, fillTree
// must give the tree that inserting the rows in heap order gives — the
// same Height, which the cost model bills per traversal, the same size
// model and key statistics, and the same entries in the same order.
func TestBulkBuildMatchesInsertion(t *testing.T) {
	for _, scale := range []float64{0.0002, 0.0005} {
		for _, db := range []string{"NREF", "SkTH", "UnTH"} {
			e := generatedEngine(t, db, scale)
			for _, d := range OneColumnConfiguration(e).Indexes {
				heap, cols := indexColumns(t, e, d)
				checkBuild(t, fmt.Sprintf("%s@%g/%s", db, scale, d.Name()), heap, cols)
			}
		}
	}

	tab := catalog.MustTable("mixed", []catalog.Column{
		{Name: "m", Type: catalog.TypeFloat}, {Name: "i", Type: catalog.TypeInt},
	}, nil)
	heap := storage.NewHeap(tab)
	mixed := []val.Value{val.Null(), val.Int(1), val.Float(1), val.Float(0.5), val.Int(-3), val.String("x"), val.Float(math.Copysign(0, -1)), val.Int(0)}
	for i := range 3000 {
		r := val.Row{mixed[i*7%len(mixed)], val.Int(int64(i % 5))}
		if _, err := heap.Insert(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]int{{0}, {1, 0}, {0, 1}} {
		checkBuild(t, fmt.Sprintf("mixed%v", cols), heap, cols)
	}
}

// checkBuild compares fillTree's tree for the key columns with the one
// inserting the heap's rows in heap order builds.
func checkBuild(t *testing.T, name string, heap *storage.Heap, cols []int) {
	t.Helper()
	built, ndv := fillTree(heap, cols)
	inserted := btree.New(false)
	heap.Scan(nil, func(id storage.RowID, r val.Row) bool {
		if err := inserted.Insert(r.Project(cols), int64(id)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if built.Height() != inserted.Height() || built.Len() != inserted.Len() || built.LeafPages() != inserted.LeafPages() {
		t.Errorf("%s: Height/Len/LeafPages %d/%d/%d, insertion %d/%d/%d", name,
			built.Height(), built.Len(), built.LeafPages(),
			inserted.Height(), inserted.Len(), inserted.LeafPages())
	}
	if want := insertionKeyNDV(inserted, len(cols)); !slices.Equal(ndv, want) {
		t.Errorf("%s: KeyNDV %v, insertion %v", name, ndv, want)
	}
	a, b := built.Scan(), inserted.Scan()
	for i := 0; ; i++ {
		ak, ar, aok := a.Next()
		bk, br, bok := b.Next()
		if aok != bok || aok && (!slices.Equal(ak, bk) || ar != br) {
			t.Errorf("%s: Scan entry %d is (%v, %d), insertion (%v, %d)", name, i, ak, ar, bk, br)
			return
		}
		if !aok {
			return
		}
	}
}

// BenchmarkFillTree prices one index build per row on NREF's largest table
// at scale 0.0002, for a single-int, a string and a two-column key; compare
// with btree.insert.ns_per_op, the per-entry cost of the insertion build.
func BenchmarkFillTree(b *testing.B) {
	e := generatedEngine(b, "NREF", 0.0002)
	var largest *catalog.Table
	for _, t := range e.Schema.Tables() {
		if largest == nil || e.Heap(t.Name).NumRows() > e.Heap(largest.Name).NumRows() {
			largest = t
		}
	}
	var intCol, strCol string
	for _, c := range largest.Columns {
		switch {
		case c.Type == catalog.TypeInt && intCol == "":
			intCol = c.Name
		case c.Type == catalog.TypeString && strCol == "":
			strCol = c.Name
		}
	}
	for _, key := range [][]string{{intCol}, {strCol}, {strCol, intCol}} {
		d := conf.IndexDef{Table: largest.Name, Columns: key}
		heap, cols := indexColumns(b, e, d)
		b.Run(d.Name(), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				fillTree(heap, cols)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * float64(heap.NumRows())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
		})
	}
}

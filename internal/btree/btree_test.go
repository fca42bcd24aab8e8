package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/val"
)

func intKey(i int64) val.Row { return val.Row{val.Int(i)} }

func collect(it *Iter) (keys []val.Row, rids []int64) {
	for {
		k, r, ok := it.Next()
		if !ok {
			return
		}
		keys = append(keys, k)
		rids = append(rids, r)
	}
}

func TestInsertAndScanSorted(t *testing.T) {
	tr := New(false)
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(rng.Int63n(1000)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	keys, _ := collect(tr.Scan())
	if len(keys) != n {
		t.Fatalf("scan returned %d entries, want %d", len(keys), n)
	}
	for i := 1; i < len(keys); i++ {
		if val.CompareRows(keys[i-1], keys[i]) > 0 {
			t.Fatalf("scan out of order at %d: %v > %v", i, keys[i-1], keys[i])
		}
	}
}

func TestUniqueRejectsDuplicates(t *testing.T) {
	tr := New(true)
	if err := tr.Insert(intKey(7), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intKey(7), 2); err == nil {
		t.Fatal("expected duplicate-key error")
	}
	if err := tr.Insert(intKey(8), 2); err != nil {
		t.Fatal(err)
	}
}

func TestSeekPrefixSingleColumn(t *testing.T) {
	tr := New(false)
	// 10 entries for each key 0..99.
	for k := int64(0); k < 100; k++ {
		for d := int64(0); d < 10; d++ {
			if err := tr.Insert(intKey(k), k*10+d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range []int64{0, 1, 42, 99} {
		_, rids := collect(tr.SeekPrefix(intKey(k)))
		if len(rids) != 10 {
			t.Fatalf("prefix %d: got %d entries, want 10", k, len(rids))
		}
		for _, r := range rids {
			if r/10 != k {
				t.Fatalf("prefix %d returned rid %d", k, r)
			}
		}
	}
	if _, rids := collect(tr.SeekPrefix(intKey(100))); len(rids) != 0 {
		t.Fatalf("missing key returned %d entries", len(rids))
	}
}

func TestSeekPrefixComposite(t *testing.T) {
	tr := New(false)
	id := int64(0)
	for a := int64(0); a < 20; a++ {
		for b := int64(0); b < 20; b++ {
			if err := tr.Insert(val.Row{val.Int(a), val.Int(b)}, id); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	// Prefix on first column only.
	keys, _ := collect(tr.SeekPrefix(intKey(7)))
	if len(keys) != 20 {
		t.Fatalf("one-column prefix: got %d, want 20", len(keys))
	}
	// Full-key prefix.
	keys, _ = collect(tr.SeekPrefix(val.Row{val.Int(7), val.Int(3)}))
	if len(keys) != 1 {
		t.Fatalf("full prefix: got %d, want 1", len(keys))
	}
}

func TestSeekRange(t *testing.T) {
	tr := New(false)
	for i := int64(0); i < 1000; i++ {
		if err := tr.Insert(intKey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		lo, hi         int64
		loIncl, hiIncl bool
		want           int64
	}{
		{10, 20, true, true, 11},
		{10, 20, false, true, 10},
		{10, 20, true, false, 10},
		{10, 20, false, false, 9},
		{0, 999, true, true, 1000},
		{500, 500, true, true, 1},
		{500, 500, false, false, 0},
	}
	for _, c := range cases {
		_, rids := collect(tr.SeekRange(intKey(c.lo), intKey(c.hi), c.loIncl, c.hiIncl))
		if int64(len(rids)) != c.want {
			t.Errorf("range [%d,%d] incl(%v,%v): got %d, want %d",
				c.lo, c.hi, c.loIncl, c.hiIncl, len(rids), c.want)
		}
	}
	// Unbounded ranges.
	if _, rids := collect(tr.SeekRange(nil, intKey(9), true, true)); len(rids) != 10 {
		t.Errorf("(-inf, 9]: got %d, want 10", len(rids))
	}
	if _, rids := collect(tr.SeekRange(intKey(990), nil, true, true)); len(rids) != 10 {
		t.Errorf("[990, +inf): got %d, want 10", len(rids))
	}
}

// TestRangeScanMatchesFilteredScan is the core index invariant: a range
// scan must return exactly the entries a filtered full scan returns.
func TestRangeScanMatchesFilteredScan(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint8) bool {
		lo, hi := int64(loRaw%100), int64(hiRaw%100)
		if lo > hi {
			lo, hi = hi, lo
		}
		rng := rand.New(rand.NewSource(seed))
		tr := New(false)
		var all []int64
		for i := 0; i < 500; i++ {
			k := rng.Int63n(100)
			if err := tr.Insert(intKey(k), int64(i)); err != nil {
				return false
			}
			all = append(all, k)
		}
		var want int
		for _, k := range all {
			if k >= lo && k <= hi {
				want++
			}
		}
		_, rids := collect(tr.SeekRange(intKey(lo), intKey(hi), true, true))
		return len(rids) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := New(false)
	for i := int64(0); i < 100_000; i++ {
		if err := tr.Insert(intKey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Height(); h < 2 || h > 5 {
		t.Errorf("height of 100k-entry tree = %d, want 2..5", h)
	}
}

func TestSizeModel(t *testing.T) {
	tr := New(false)
	for i := int64(0); i < 10_000; i++ {
		if err := tr.Insert(intKey(i), i); err != nil {
			t.Fatal(err)
		}
	}
	sh := tr.Shape()
	if sh.LeafPages <= 0 || sh.Bytes <= 0 || sh.EntriesPerLeaf <= 0 {
		t.Error("size model must be positive")
	}
	// 10k entries of ~16 bytes at 70% fill of 4KB pages: roughly 56 pages.
	if lp := sh.LeafPages; lp < 30 || lp > 120 {
		t.Errorf("LeafPages = %d, want ~56", lp)
	}
}

// TestShape pins the one size model built and hypothetical trees share:
// leaf pages at 70% fill of a 4 KB page (2 867 bytes), entries per leaf
// page, bytes with one internal page per 64 leaves plus the root, and the
// modeled height at fan-out 64.
func TestShape(t *testing.T) {
	for _, c := range []struct {
		rows, width int64
		want        Size
		height      int
	}{
		{0, 16, Size{LeafPages: 1, EntriesPerLeaf: 179, Bytes: 2 * 4096}, 1},
		{179, 16, Size{LeafPages: 1, EntriesPerLeaf: 179, Bytes: 2 * 4096}, 1},
		{180, 16, Size{LeafPages: 2, EntriesPerLeaf: 179, Bytes: 3 * 4096}, 2},
		{10_000, 16, Size{LeafPages: 56, EntriesPerLeaf: 179, Bytes: 57 * 4096}, 2},
		{64 * 2867, 1, Size{LeafPages: 64, EntriesPerLeaf: 2867, Bytes: 66 * 4096}, 2},
		{65 * 2867, 1, Size{LeafPages: 65, EntriesPerLeaf: 2867, Bytes: 67 * 4096}, 3},
		{1, 4000, Size{LeafPages: 2, EntriesPerLeaf: 1, Bytes: 3 * 4096}, 2},
	} {
		got := Shape(c.rows, c.width)
		if got != c.want || got.Height() != c.height {
			t.Errorf("Shape(%d, %d) = %+v height %d, want %+v height %d",
				c.rows, c.width, got, got.Height(), c.want, c.height)
		}
	}
	// A built tree is sized by its entry count and average entry width:
	// its keys' average Row.Width plus the 8-byte rid.
	tr := New(false)
	var keyBytes int64
	for i := int64(0); i < 1000; i++ {
		k := val.Row{val.String(string(make([]byte, i%7)))}
		keyBytes += int64(k.Width())
		if err := tr.Insert(k, i); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tr.Shape(), Shape(1000, keyBytes/1000+8); got != want {
		t.Errorf("Tree.Shape() = %+v, want Shape over its average width %+v", got, want)
	}
	if got, want := New(false).Shape(), Shape(0, 16); got != want {
		t.Errorf("empty Tree.Shape() = %+v, want %+v", got, want)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(false)
	words := []string{"delta", "alpha", "echo", "bravo", "charlie", "alpha"}
	for i, w := range words {
		if err := tr.Insert(val.Row{val.String(w)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	keys, _ := collect(tr.Scan())
	var got []string
	for _, k := range keys {
		got = append(got, k[0].Str)
	}
	want := append([]string(nil), words...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order: got %v, want %v", got, want)
		}
	}
	if _, rids := collect(tr.SeekPrefix(val.Row{val.String("alpha")})); len(rids) != 2 {
		t.Errorf("duplicate string keys: got %d, want 2", len(rids))
	}
}

func TestFirst(t *testing.T) {
	tr := New(false)
	for i := int64(0); i < 50; i++ {
		if err := tr.Insert(intKey(i), i*2); err != nil {
			t.Fatal(err)
		}
	}
	rid, ok := tr.First(intKey(21))
	if !ok || rid != 42 {
		t.Errorf("First(21) = %d,%v want 42,true", rid, ok)
	}
	if _, ok := tr.First(intKey(100)); ok {
		t.Error("First of missing key should report !ok")
	}
}

func TestIterScannedCount(t *testing.T) {
	tr := New(false)
	for i := int64(0); i < 100; i++ {
		if err := tr.Insert(intKey(i%10), i); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.SeekPrefix(intKey(3))
	collect(it)
	if it.Scanned() != 10 {
		t.Errorf("Scanned = %d, want 10", it.Scanned())
	}
}

package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/val"
)

type entry struct {
	key val.Row
	rid int64
}

// build returns two trees over the entries: one inserted in rid order (the
// order a heap scan yields) and one bulk-built from the sorted entries.
func build(t testing.TB, es []entry) (inserted, built *Tree) {
	t.Helper()
	byRid := slices.Clone(es)
	slices.SortStableFunc(byRid, func(a, b entry) int { return cmp.Compare(a.rid, b.rid) })
	inserted = New(false)
	for _, e := range byRid {
		if err := inserted.Insert(e.key, e.rid); err != nil {
			t.Fatal(err)
		}
	}
	sorted := slices.Clone(es)
	slices.SortFunc(sorted, func(a, b entry) int { return cmpEntry(a.key, a.rid, b.key, b.rid) })
	keys := make([]val.Row, len(sorted))
	rids := make([]int64, len(sorted))
	for i, e := range sorted {
		keys[i], rids[i] = e.key, e.rid
	}
	return inserted, Build(keys, rids)
}

// diff describes the first difference between two iterators' entries, or
// returns "" if they produce the same ones.
func diff(a, b *Iter) string {
	ak, ar := collect(a)
	bk, br := collect(b)
	for i := range min(len(ak), len(bk)) {
		if val.CompareRows(ak[i], bk[i]) != 0 || ar[i] != br[i] {
			return fmt.Sprintf("entry %d: (%v, %d) vs (%v, %d)", i, ak[i], ar[i], bk[i], br[i])
		}
	}
	if len(ak) != len(bk) {
		return fmt.Sprintf("%d entries vs %d", len(ak), len(bk))
	}
	return ""
}

// sameEntries requires a and b to answer Scan, SeekPrefix and SeekRange
// (every inclusivity, bounded and unbounded) identically.
func sameEntries(t testing.TB, a, b *Tree, probes []val.Row) {
	t.Helper()
	if a.Len() != b.Len() || a.Shape() != b.Shape() {
		t.Fatalf("size model: Len %d/%d Shape %+v/%+v", a.Len(), b.Len(), a.Shape(), b.Shape())
	}
	if d := diff(a.Scan(), b.Scan()); d != "" {
		t.Fatalf("Scan differs: %s", d)
	}
	for _, p := range probes {
		for _, pre := range []val.Row{p[:1], p} {
			if d := diff(a.SeekPrefix(pre), b.SeekPrefix(pre)); d != "" {
				t.Fatalf("SeekPrefix(%v) differs: %s", pre, d)
			}
		}
	}
	for i, lo := range probes {
		hi := probes[(i+1)%len(probes)][:1]
		for _, bounds := range [][2]val.Row{{lo[:1], hi}, {nil, hi}, {lo[:1], nil}, {lo, lo}} {
			for _, incl := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
				d := diff(a.SeekRange(bounds[0], bounds[1], incl[0], incl[1]),
					b.SeekRange(bounds[0], bounds[1], incl[0], incl[1]))
				if d != "" {
					t.Fatalf("SeekRange(%v, %v, %v) differs: %s", bounds[0], bounds[1], incl, d)
				}
			}
		}
	}
}

// checkShape verifies the tree's structure: every leaf at depth Height,
// every node within the fan-out, every separator between the keys of the
// children it divides, and the leaf chain visiting the leaves in order.
func checkShape(t testing.TB, tr *Tree) {
	t.Helper()
	var leaves []*leaf
	// walk returns the smallest and largest key under n (nil if empty).
	var walk func(n node, depth int) (lo, hi val.Row)
	walk = func(n node, depth int) (lo, hi val.Row) {
		switch n := n.(type) {
		case *leaf:
			if depth != tr.Height() || len(n.keys) > order || len(n.keys) != len(n.rids) {
				t.Fatalf("leaf at depth %d of %d with %d keys, %d rids", depth, tr.Height(), len(n.keys), len(n.rids))
			}
			leaves = append(leaves, n)
			if len(n.keys) == 0 {
				return nil, nil
			}
			return n.keys[0], n.keys[len(n.keys)-1]
		case *inner:
			if len(n.children) < 2 || len(n.children) > order || len(n.seps) != len(n.children)-1 {
				t.Fatalf("inner node with %d children, %d separators", len(n.children), len(n.seps))
			}
			for i, c := range n.children {
				clo, chi := walk(c, depth+1)
				if i > 0 && val.CompareRows(n.seps[i-1], clo) > 0 {
					t.Fatalf("separator %v above its right child's first key %v", n.seps[i-1], clo)
				}
				if i < len(n.seps) && val.CompareRows(chi, n.seps[i]) > 0 {
					t.Fatalf("separator %v below its left child's last key %v", n.seps[i], chi)
				}
				if i == 0 {
					lo = clo
				}
				hi = chi
			}
			return lo, hi
		}
		panic("unknown node")
	}
	walk(tr.root, 1)
	for i, lf := range leaves[:len(leaves)-1] {
		if lf.next != leaves[i+1] {
			t.Fatalf("leaf %d does not link to leaf %d", i, i+1)
		}
	}
}

// randomEntries returns n two-column entries in rid order, the first
// column drawn from [0, domain), so keys repeat.
func randomEntries(rng *rand.Rand, n, domain, firstRid int) []entry {
	es := make([]entry, n)
	for i := range es {
		es[i] = entry{
			key: val.Row{val.Int(rng.Int63n(int64(domain))), val.String(string(rune('a' + rng.Intn(3))))},
			rid: int64(firstRid + i),
		}
	}
	return es
}

// TestBuildMatchesInsert holds Build to the tree that inserting the same
// entries builds: same entries in the same order under every kind of seek,
// before and after further inserts. Heights are pinned on real data by the
// engine's TestBulkBuildMatchesInsertion; random insertion near a level
// boundary can land on either side.
func TestBuildMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, height int }{
		{0, 1}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {2816, 2}, {2817, 3}, {5000, 3},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			domain := tc.n/8 + 2
			es := randomEntries(rng, tc.n, domain, 0)
			inserted, built := build(t, es)
			if built.Height() != tc.height {
				t.Errorf("Build height = %d, want %d", built.Height(), tc.height)
			}
			probes := []val.Row{{val.Int(0), val.String("a")}, {val.Int(-1), val.String("")}}
			for _, e := range es[:min(len(es), 10)] {
				probes = append(probes, e.key)
			}
			checkShape(t, built)
			sameEntries(t, inserted, built, probes)

			// New rows arrive with larger rids, as heap appends do.
			more := randomEntries(rng, 3000, domain, tc.n)
			for _, e := range more {
				if err := inserted.Insert(e.key, e.rid); err != nil {
					t.Fatal(err)
				}
				if err := built.Insert(e.key, e.rid); err != nil {
					t.Fatal(err)
				}
			}
			checkShape(t, inserted)
			checkShape(t, built)
			want, _ := build(t, append(slices.Clone(es), more...))
			sameEntries(t, want, inserted, probes)
			sameEntries(t, want, built, probes)
		})
	}
}

// TestInsertIntoBuiltTree grows one corner of a built tree. Built nodes
// are windows of shared arrays, so a node that grows must copy its
// entries rather than write into its right neighbour's.
func TestInsertIntoBuiltTree(t *testing.T) {
	const n = 10_000
	es := make([]entry, n)
	for i := range es {
		es[i] = entry{key: intKey(int64(i) * 10), rid: int64(i)}
	}
	inserted, built := build(t, es)
	for i := range 3000 {
		e := entry{key: intKey(int64(i % 1000)), rid: int64(n + i)}
		es = append(es, e)
		if err := inserted.Insert(e.key, e.rid); err != nil {
			t.Fatal(err)
		}
		if err := built.Insert(e.key, e.rid); err != nil {
			t.Fatal(err)
		}
	}
	checkShape(t, built)
	want, _ := build(t, es)
	probes := []val.Row{intKey(5), intKey(990), intKey(1000), intKey(26_000), intKey(50_000)}
	sameEntries(t, want, inserted, probes)
	sameEntries(t, want, built, probes)
}

// FuzzBuild decodes a (key, rid) multiset — four bytes an entry: two key
// columns and a rid, at most 512 entries — and requires Build and
// rid-order Insert to hold the same entries in the same order.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 3, 1, 2, 0, 1, 0, 0, 0, 0})
	seed := make([]byte, 4*300)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4*512)]
		es := make([]entry, 0, len(data)/4)
		for ; len(data) >= 4; data = data[4:] {
			es = append(es, entry{
				key: val.Row{val.Int(int64(data[0] % 16)), val.Int(int64(int8(data[1])))},
				rid: int64(binary.LittleEndian.Uint16(data[2:])),
			})
		}
		inserted, built := build(t, es)
		checkShape(t, built)
		probes := []val.Row{{val.Int(0), val.Int(0)}, {val.Int(7), val.Int(-3)}, {val.Int(16), val.Int(0)}}
		for _, e := range es[:min(len(es), 3)] {
			probes = append(probes, e.key)
		}
		sameEntries(t, inserted, built, probes)
	})
}

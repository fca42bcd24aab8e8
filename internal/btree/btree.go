// Package btree implements an in-memory B+-tree keyed by composite rows,
// the index structure behind every secondary and primary-key index in the
// benchmark engine.
//
// Keys are val.Row values compared lexicographically; each entry carries an
// opaque int64 payload (a storage RowID). Duplicate keys are permitted —
// entries are ordered by (key, payload) — which is what a non-unique
// secondary index needs.
//
// The tree is a real search structure (lookups walk internal nodes to a
// leaf, range scans follow the leaf chain), and it exposes a size model
// (Height, and Shape for built and hypothetical trees alike) that the
// cost model uses to bill index traversals and leaf scans in simulated
// time.
//
// A tree is built either entry by entry (New, then Insert) or in one pass
// from entries already in (key, payload) order (Build). Build fills leaves
// to the 70% that Shape models, which reproduces the height an
// insertion-built tree over the same entries reaches; later Inserts work
// on either kind of tree.
package btree

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/val"
)

// order is the fan-out of the tree: maximum number of entries in a leaf
// and of children in an internal node. 64 keeps the height realistic
// (3-4 levels for millions of keys) while staying cache-friendly.
const order = 64

// fillPercent is the leaf fill the size model assumes (Shape).
const fillPercent = 70

// buildFill is the entries per leaf Build aims for: the fill the size
// model assumes.
const buildFill = order * fillPercent / 100

type leaf struct {
	keys []val.Row
	rids []int64
	next *leaf
}

type inner struct {
	// seps[i] is the smallest key in children[i+1]'s subtree.
	seps     []val.Row
	children []node
}

type node interface{ isNode() }

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// Tree is a B+-tree. The zero value is not usable; call New.
type Tree struct {
	root   node
	height int // number of levels; 1 = root is a leaf
	size   int64

	keyWidth int64 // cumulative key bytes, for the size model
	unique   bool
}

// New returns an empty tree. If unique is true, Insert rejects an entry
// whose key already exists.
func New(unique bool) *Tree {
	return &Tree{root: &leaf{}, height: 1, unique: unique}
}

// Build returns a non-unique tree holding the given entries, which must
// already be sorted by (key, rid) and be of equal length. The tree keeps
// both slices: the caller must not modify them afterwards.
//
// Leaves hold buildFill entries on average, spread evenly and linked;
// each inner level packs at most order children per node, spread evenly,
// with the first key of every child after the first as its separator.
// Nodes are capacity-clipped windows of the shared slices, so a later
// Insert into a full node copies instead of writing into its neighbour.
func Build(keys []val.Row, rids []int64) *Tree {
	n := len(keys)
	t := &Tree{height: 1, size: int64(n)}
	for _, k := range keys {
		t.keyWidth += int64(k.Width())
	}
	if n <= order {
		t.root = &leaf{keys: keys[:n:n], rids: rids[:n:n]}
		return t
	}
	level := make([]node, (n+buildFill-1)/buildFill)
	mins := make([]val.Row, len(level)) // smallest key under each node
	var prev *leaf
	for i := range level {
		lo, hi := i*n/len(level), (i+1)*n/len(level)
		lf := &leaf{keys: keys[lo:hi:hi], rids: rids[lo:hi:hi]}
		if prev != nil {
			prev.next = lf
		}
		prev, level[i], mins[i] = lf, lf, keys[lo]
	}
	for len(level) > 1 {
		m := len(level)
		up := make([]node, (m+order-1)/order)
		upMins := make([]val.Row, len(up))
		for i := range up {
			lo, hi := i*m/len(up), (i+1)*m/len(up)
			up[i] = &inner{seps: mins[lo+1 : hi : hi], children: level[lo:hi:hi]}
			upMins[i] = mins[lo]
		}
		level, mins = up, upMins
		t.height++
	}
	t.root = level[0]
	return t
}

// Len returns the number of entries.
func (t *Tree) Len() int64 { return t.size }

// Height returns the number of levels in the tree (1 = a single leaf).
// The cost model bills Height random page reads per traversal.
func (t *Tree) Height() int { return t.height }

// Size is a B+-tree's modeled size, the figures the cost model bills
// index reads and budgets storage with.
type Size struct {
	LeafPages      int64 // leaf pages at fillPercent fill
	EntriesPerLeaf int64 // entries per leaf page: a leaf scan bills one page per this many
	Bytes          int64 // leaves plus ~1.5% internal-node overhead
}

// Shape returns the modeled size of a tree of rows entries averaging
// entryWidth bytes each (key plus 8-byte rid). Leaves are fillPercent
// full: the steady-state fill of a B+-tree built by random insertion, and
// the fill Build packs its leaves to. A built tree and a hypothetical
// one are sized by this one model. It is arithmetic on values, shared by
// the size estimators.
func Shape(rows, entryWidth int64) Size {
	fill := int64(cost.PageSize) * fillPercent / 100
	lp := max((rows*entryWidth+fill-1)/fill, 1)
	return Size{
		LeafPages:      lp,
		EntriesPerLeaf: max(fill/entryWidth, 1),
		Bytes:          (lp + lp/order + 1) * cost.PageSize,
	}
}

// Height returns the modeled height of a tree of s.LeafPages leaves at
// fan-out order: the height a hypothetical index is billed. A built tree
// reports its own (Tree.Height). Arithmetic on a value receiver, shared
// by the size estimators.
func (s Size) Height() int {
	h := 1
	for p := s.LeafPages; p > 1; p = (p + order - 1) / order {
		h++
	}
	return h
}

// Shape returns the tree's modeled size over its average entry width
// (16 bytes when it is empty).
func (t *Tree) Shape() Size {
	if t.size == 0 {
		return Shape(0, 16)
	}
	return Shape(t.size, t.keyWidth/t.size+8)
}

// cmpEntry orders (key, rid) pairs.
func cmpEntry(aKey val.Row, aRid int64, bKey val.Row, bRid int64) int {
	if c := val.CompareRows(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aRid < bRid:
		return -1
	case aRid > bRid:
		return 1
	}
	return 0
}

// Insert adds an entry. For unique trees it returns an error if the key is
// already present.
func (t *Tree) Insert(key val.Row, rid int64) error {
	if t.unique {
		if _, ok := t.First(key); ok {
			return fmt.Errorf("btree: duplicate key %v in unique index", key)
		}
	}
	sepKey, newChild := t.insert(t.root, key, rid)
	if newChild != nil {
		t.root = &inner{seps: []val.Row{sepKey}, children: []node{t.root, newChild}}
		t.height++
	}
	t.size++
	t.keyWidth += int64(key.Width())
	return nil
}

// insert descends into n; on split it returns the separator key and the
// new right sibling.
func (t *Tree) insert(n node, key val.Row, rid int64) (val.Row, node) {
	switch n := n.(type) {
	case *leaf:
		i := t.leafLowerBound(n, key, rid)
		n.keys = append(n.keys, nil)
		n.rids = append(n.rids, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.rids[i+1:], n.rids[i:])
		n.keys[i] = key
		n.rids[i] = rid
		if len(n.keys) <= order {
			return nil, nil
		}
		// Split.
		mid := len(n.keys) / 2
		right := &leaf{
			keys: append([]val.Row(nil), n.keys[mid:]...),
			rids: append([]int64(nil), n.rids[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid:mid]
		n.rids = n.rids[:mid:mid]
		n.next = right
		return right.keys[0], right

	case *inner:
		ci := t.childIndex(n, key)
		sep, newChild := t.insert(n.children[ci], key, rid)
		if newChild == nil {
			return nil, nil
		}
		n.seps = append(n.seps, nil)
		n.children = append(n.children, nil)
		copy(n.seps[ci+1:], n.seps[ci:])
		copy(n.children[ci+2:], n.children[ci+1:])
		n.seps[ci] = sep
		n.children[ci+1] = newChild
		if len(n.children) <= order {
			return nil, nil
		}
		// Split the inner node.
		midSep := len(n.seps) / 2
		upKey := n.seps[midSep]
		right := &inner{
			seps:     append([]val.Row(nil), n.seps[midSep+1:]...),
			children: append([]node(nil), n.children[midSep+1:]...),
		}
		n.seps = n.seps[:midSep:midSep]
		n.children = n.children[: midSep+1 : midSep+1]
		return upKey, right
	}
	panic("btree: unknown node type")
}

// leafLowerBound returns the position of the first entry >= (key, rid).
func (t *Tree) leafLowerBound(n *leaf, key val.Row, rid int64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpEntry(n.keys[mid], n.rids[mid], key, rid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child to descend into for key.
func (t *Tree) childIndex(n *inner, key val.Row) int {
	lo, hi := 0, len(n.seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if val.CompareRows(n.seps[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descendToLeaf walks to the leaf that may contain the first entry with a
// key >= the given key prefix, returning the leaf and entry position.
func (t *Tree) descendToLeaf(key val.Row) (*leaf, int) {
	n := t.root
	for {
		switch nd := n.(type) {
		case *inner:
			// For prefix seeks we must take the leftmost viable child:
			// compare separators against the prefix only.
			lo, hi := 0, len(nd.seps)
			for lo < hi {
				mid := (lo + hi) / 2
				if comparePrefix(nd.seps[mid], key) < 0 {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			n = nd.children[lo]
		case *leaf:
			lo, hi := 0, len(nd.keys)
			for lo < hi {
				mid := (lo + hi) / 2
				if comparePrefix(nd.keys[mid], key) < 0 {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return nd, lo
		}
	}
}

// comparePrefix compares a full key against a (possibly shorter) bound,
// considering only the bound's columns.
func comparePrefix(full val.Row, bound val.Row) int {
	n := len(bound)
	if len(full) < n {
		n = len(full)
	}
	for i := 0; i < n; i++ {
		if c := val.Compare(full[i], bound[i]); c != 0 {
			return c
		}
	}
	return 0
}

// First returns the payload of the first entry whose key has the given
// prefix, if any.
func (t *Tree) First(prefix val.Row) (int64, bool) {
	it := t.SeekPrefix(prefix)
	_, rid, ok := it.Next()
	return rid, ok
}

// Iter iterates tree entries in key order.
type Iter struct {
	t    *Tree
	leaf *leaf
	pos  int
	// stop reports whether the entry at (leaf, pos) terminates iteration.
	stop func(key val.Row) bool
	// skipWhile, if set, discards leading entries matching it (used for
	// exclusive lower bounds); cleared after the first mismatch.
	skipWhile func(key val.Row) bool
	// entries consumed, for cost accounting by the caller.
	scanned int64
}

// Next returns the next entry. ok is false when iteration is done.
func (it *Iter) Next() (key val.Row, rid int64, ok bool) {
	for it.leaf != nil {
		if it.pos >= len(it.leaf.keys) {
			it.leaf = it.leaf.next
			it.pos = 0
			continue
		}
		k, r := it.leaf.keys[it.pos], it.leaf.rids[it.pos]
		if it.skipWhile != nil {
			if it.skipWhile(k) {
				it.pos++
				continue
			}
			it.skipWhile = nil
		}
		if it.stop != nil && it.stop(k) {
			it.leaf = nil
			return nil, 0, false
		}
		it.pos++
		it.scanned++
		return k, r, true
	}
	return nil, 0, false
}

// Scanned returns the number of entries produced so far.
func (it *Iter) Scanned() int64 { return it.scanned }

// SeekPrefix returns an iterator over all entries whose key starts with
// the given prefix (all entries if the prefix is empty).
func (t *Tree) SeekPrefix(prefix val.Row) *Iter {
	lf, pos := t.descendToLeaf(prefix)
	it := &Iter{t: t, leaf: lf, pos: pos}
	if len(prefix) > 0 {
		p := prefix.Clone()
		it.stop = func(k val.Row) bool { return comparePrefix(k, p) != 0 }
	}
	return it
}

// SeekRange returns an iterator over entries with lo <= key-prefix <= hi
// on the first len(lo) columns. Either bound may be nil (unbounded).
// Bounds are inclusive when loIncl/hiIncl are set.
func (t *Tree) SeekRange(lo, hi val.Row, loIncl, hiIncl bool) *Iter {
	var lf *leaf
	var pos int
	if lo == nil {
		lf, pos = t.leftmost()
	} else {
		lf, pos = t.descendToLeaf(lo)
	}
	it := &Iter{t: t, leaf: lf, pos: pos}
	if lo != nil && !loIncl {
		l := lo.Clone()
		it.skipWhile = func(k val.Row) bool { return comparePrefix(k, l) == 0 }
	}
	if hi != nil {
		h := hi.Clone()
		if hiIncl {
			it.stop = func(k val.Row) bool { return comparePrefix(k, h) > 0 }
		} else {
			it.stop = func(k val.Row) bool { return comparePrefix(k, h) >= 0 }
		}
	}
	return it
}

// Scan returns an iterator over all entries in key order.
func (t *Tree) Scan() *Iter {
	lf, pos := t.leftmost()
	return &Iter{t: t, leaf: lf, pos: pos}
}

func (t *Tree) leftmost() (*leaf, int) {
	n := t.root
	for {
		switch nd := n.(type) {
		case *inner:
			n = nd.children[0]
		case *leaf:
			return nd, 0
		}
	}
}

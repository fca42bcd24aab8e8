package exec

import (
	"hash/maphash"
	"maps"
	"math"
	"slices"

	"repro/internal/val"
)

// Value identity (DESIGN §6a): every executor table treats two values as
// one key iff their val.AppendKey bytes are equal — Int 1 ≠ Float 1.0,
// −0 ≠ +0, all NaNs are one value, NULL = NULL — but tests it on the typed
// fields. TestKeyIdentityMatchesAppendKey and FuzzKeyIdentity pin that.

// floatKey is the identity of a float payload: its bits, with every NaN
// folded into one (AppendKey renders them all as "NaN").
func floatKey(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// same reports whether a and b are one key.
func same(a, b val.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case val.KindInt:
		return a.I == b.I
	case val.KindFloat:
		return floatKey(a.F) == floatKey(b.F)
	case val.KindString:
		return a.Str == b.Str
	}
	return true
}

// strSeed seeds string hashing. Hashes only place keys in a table and
// are never iterated, so a per-process seed changes no output.
var strSeed = maphash.MakeSeed()

// hashValue hashes v consistently with same: strings through maphash,
// other kinds by their raw bits.
func hashValue(v val.Value) uint64 {
	switch v.K {
	case val.KindInt:
		return uint64(v.I)
	case val.KindFloat:
		return floatKey(v.F)
	case val.KindString:
		return maphash.String(strSeed, v.Str)
	}
	return 0
}

// hashKey combines the hashes of r's values at offs (FNV-1a's mixing).
func hashKey(r val.Row, offs []int) uint64 {
	h := uint64(14695981039346656037)
	for _, o := range offs {
		h = (h ^ hashValue(r[o])) * 1099511628211
	}
	return h
}

// valueMap maps values, under that identity, to a V: one typed map per
// kind, each made on first use. A string is keyed by the value's own
// Str, which the row already holds, so an insert copies no bytes.
type valueMap[V any] struct {
	ints    map[int64]V
	floats  map[uint64]V
	strs    map[string]V
	null    V
	hasNull bool
}

// valueSet is a set of values under that identity (DISTINCT, IN). Its
// maps are a valueMap's with empty values, so get, contains, len and
// each are valueMap's.
type valueSet struct{ valueMap[struct{}] }

func (m *valueMap[V]) get(v val.Value) (x V, ok bool) {
	switch v.K {
	case val.KindInt:
		x, ok = m.ints[v.I]
	case val.KindFloat:
		x, ok = m.floats[floatKey(v.F)]
	case val.KindString:
		x, ok = m.strs[v.Str]
	default:
		x, ok = m.null, m.hasNull
	}
	return x, ok
}

func (m *valueMap[V]) set(v val.Value, x V) {
	switch v.K {
	case val.KindInt:
		put(&m.ints, v.I, x)
	case val.KindFloat:
		put(&m.floats, floatKey(v.F), x)
	case val.KindString:
		put(&m.strs, v.Str, x)
	default:
		m.null, m.hasNull = x, true
	}
}

func put[K comparable, V any](m *map[K]V, k K, x V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = x
}

// add inserts v and reports whether it was new: one map assignment, and
// the map's length says whether it grew. (Go grows a full 8-entry map
// on any assignment, a member's too, so a set that stops at exactly 8
// members allocates once more than a lookup first would.)
func (s *valueSet) add(v val.Value) bool {
	switch v.K {
	case val.KindInt:
		return putNew(&s.ints, v.I)
	case val.KindFloat:
		return putNew(&s.floats, floatKey(v.F))
	case val.KindString:
		return putNew(&s.strs, v.Str)
	}
	added := !s.hasNull
	s.hasNull = true
	return added
}

func putNew[K comparable](m *map[K]struct{}, k K) bool {
	if *m == nil {
		*m = make(map[K]struct{})
	}
	n := len(*m)
	(*m)[k] = struct{}{}
	return len(*m) > n
}

func (m *valueMap[V]) contains(v val.Value) bool {
	_, ok := m.get(v)
	return ok
}

func (m *valueMap[V]) len() int {
	n := len(m.ints) + len(m.floats) + len(m.strs)
	if m.hasNull {
		n++
	}
	return n
}

// each calls f on every entry, in no particular order.
func (m *valueMap[V]) each(f func(val.Value, V)) {
	for i, x := range m.ints {
		f(val.Int(i), x)
	}
	for b, x := range m.floats {
		f(val.Float(math.Float64frombits(b)), x)
	}
	for s, x := range m.strs {
		f(val.String(s), x)
	}
	if m.hasNull {
		f(val.Null(), m.null)
	}
}

// union adds every member of o to s, map by map.
func (s *valueSet) union(o *valueSet) {
	putAll(&s.ints, o.ints)
	putAll(&s.floats, o.floats)
	putAll(&s.strs, o.strs)
	s.hasNull = s.hasNull || o.hasNull
}

func putAll[K comparable](m *map[K]struct{}, o map[K]struct{}) {
	if len(o) == 0 {
		return
	}
	if *m == nil {
		*m = make(map[K]struct{}, len(o))
	}
	maps.Copy(*m, o)
}

// keyTable numbers the distinct keys it is shown 0, 1, 2, … in
// first-seen order. A key is a row's values at some offsets; two keys are
// one iff their values are pairwise the same. Lookup hashes the key and
// compares every id on that hash's chain value by value, so a collision
// costs a comparison, never a wrong match. Links hold id+1: 0 ends a chain.
type keyTable struct {
	width int            // values per key
	heads map[uint64]int // hash → the newest id with that hash, plus one
	chain []int          // chain[id] is the previous id with id's hash, plus one
	vals  []val.Value    // key id is vals[id*width : (id+1)*width]
}

// find returns the id of r's key at offs, or -1.
func (t *keyTable) find(r val.Row, offs []int) int {
	for id := t.heads[hashKey(r, offs)] - 1; id >= 0; id = t.chain[id] - 1 {
		k := t.vals[id*t.width:]
		j := 0
		for j < len(offs) && same(k[j], r[offs[j]]) {
			j++
		}
		if j == len(offs) {
			return id
		}
	}
	return -1
}

// insert returns the id of r's key at offs, numbering it if it is new;
// a new key's id is the previous len(t.chain).
func (t *keyTable) insert(r val.Row, offs []int) int {
	if id := t.find(r, offs); id >= 0 {
		return id
	}
	h, id := hashKey(r, offs), len(t.chain)
	t.chain = append(grow(t.chain, 1), t.heads[h])
	t.heads[h] = id + 1
	t.vals = grow(t.vals, len(offs))
	for _, o := range offs {
		t.vals = append(t.vals, r[o])
	}
	return id
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must grow: append adds only a quarter to a large
// slice, so a table built one append at a time would allocate several
// times its final size.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

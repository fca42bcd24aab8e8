package exec

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/val"
)

// identityCases are the values where a typed identity is easiest to get
// wrong against val.AppendKey: numerically equal Int and Float, the two
// zeros, NaNs with different payloads, the empty string against NULL,
// strings containing 0x00 and the extreme integers.
var identityCases = []val.Value{
	val.Null(),
	val.Int(0), val.Int(1), val.Int(-1), val.Int(math.MinInt64), val.Int(math.MaxInt64),
	val.Float(0), val.Float(math.Copysign(0, -1)), val.Float(1), val.Float(-1),
	val.Float(math.Inf(1)), val.Float(math.Inf(-1)),
	val.Float(math.NaN()),
	val.Float(math.Float64frombits(0x7ff8000000000001)),
	val.Float(math.Float64frombits(0xfff8000000000000)),
	val.Float(math.Float64frombits(0x7ff0000000000001)), // signalling
	val.Float(float64(math.MinInt64)),
	val.String(""), val.String("0"), val.String("1"), val.String("NaN"),
	val.String("\x00"), val.String("a"), val.String("a\x00"), val.String("a\x00\x00"), val.String("\x00a"),
}

// checkIdentity asserts, for one pair, that every executor table agrees
// with AppendKey: same ⇔ equal encodings, identical values hash equal,
// a valueSet holding a contains b iff they are the same, and a keyTable
// holding a finds b iff they are the same.
func checkIdentity(t *testing.T, a, b val.Value) {
	t.Helper()
	want := bytes.Equal(val.AppendKey(nil, a), val.AppendKey(nil, b))
	if got := same(a, b); got != want {
		t.Fatalf("same(%#v, %#v) = %v, AppendKey equal = %v", a, b, got, want)
	}
	if want && hashValue(a) != hashValue(b) {
		t.Fatalf("%#v and %#v are one key but hash %x and %x", a, b, hashValue(a), hashValue(b))
	}
	var s valueSet
	if !s.add(a) || s.add(a) || s.len() != 1 {
		t.Fatalf("valueSet: adding %#v twice did not give one member", a)
	}
	if got := s.contains(b); got != want {
		t.Fatalf("valueSet{%#v}.contains(%#v) = %v, want %v", a, b, got, want)
	}
	if added := s.add(b); added == want {
		t.Fatalf("valueSet{%#v}.add(%#v) = %v, want %v", a, b, added, !want)
	}
	var u valueSet
	u.union(&s)
	if u.len() != s.len() || !u.contains(a) || !u.contains(b) {
		t.Fatalf("union of {%#v, %#v}: %d members, want %d", a, b, u.len(), s.len())
	}
	kt := &keyTable{width: 2, heads: map[uint64]int{}}
	offs := []int{0, 1}
	ida := kt.insert(val.Row{val.Int(7), a}, offs)
	if got := kt.find(val.Row{val.Int(7), b}, offs) == ida; got != want {
		t.Fatalf("keyTable holding %#v finds %#v: %v, want %v", a, b, got, want)
	}
	if kt.find(val.Row{val.Int(8), a}, offs) >= 0 {
		t.Fatalf("keyTable: key (7, %#v) matched (8, %#v)", a, a)
	}
}

// TestKeyIdentityMatchesAppendKey pins the executor's one value identity
// to the byte stream val.TestKeyEncodingGolden pins: over every pair of
// the hand table, typed identity holds exactly when the AppendKey bytes
// are equal, and identical values hash equal.
func TestKeyIdentityMatchesAppendKey(t *testing.T) {
	for _, a := range identityCases {
		for _, b := range identityCases {
			checkIdentity(t, a, b)
		}
	}
}

// fuzzValue builds a value of kind k%4 from the payload of that kind.
func fuzzValue(k uint8, i int64, f uint64, s string) val.Value {
	switch val.Kind(k % 4) {
	case val.KindInt:
		return val.Int(i)
	case val.KindFloat:
		return val.Float(math.Float64frombits(f))
	case val.KindString:
		return val.String(s)
	}
	return val.Null()
}

// FuzzKeyIdentity is TestKeyIdentityMatchesAppendKey over generated
// pairs; `make fuzz` runs it.
func FuzzKeyIdentity(f *testing.F) {
	for i, a := range identityCases {
		b := identityCases[(i+1)%len(identityCases)]
		f.Add(uint8(a.K), a.I, math.Float64bits(a.F), a.Str, uint8(b.K), b.I, math.Float64bits(b.F), b.Str)
		f.Add(uint8(a.K), a.I, math.Float64bits(a.F), a.Str, uint8(a.K), a.I, math.Float64bits(a.F), a.Str)
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, sa string, kb uint8, ib int64, fb uint64, sb string) {
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		checkIdentity(t, a, a)
		checkIdentity(t, a, b)
	})
}

package val

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestCompareScalars(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(7), Int(7), 0},
		{Float(1.5), Float(2.5), -1},
		{Int(2), Float(2.0), 0},
		{Int(2), Float(1.9), 1},
		{Float(2.1), Int(2), 1},
		{String("abc"), String("abd"), -1},
		{String("b"), String("b"), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Int(1), String("1"), -1}, // kind order: numeric before string
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Compare(String(a), String(b)) == -Compare(String(b), String(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestRowKeyInjective(t *testing.T) {
	// Rows with different contents must map to different keys, including
	// tricky cases around the separator byte and kind boundaries.
	rows := []Row{
		{Int(1), Int(2)},
		{Int(12)},
		{String("1"), Int(2)},
		{String("1\x002")},
		{String("1"), String("2")},
		{Null()},
		{Null(), Null()},
		{Int(0)},
		{Float(0)},
		{String("")},
		{},
	}
	seen := make(map[string]int)
	for i, r := range rows {
		k := r.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("rows %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
}

func TestRowKeyEqualForEqualRows(t *testing.T) {
	f := func(a int64, s string) bool {
		r1 := Row{Int(a), String(s)}
		r2 := Row{Int(a), String(s)}
		return r1.Key() == r2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareRowsLexicographic(t *testing.T) {
	a := Row{Int(1), String("b")}
	b := Row{Int(1), String("c")}
	c := Row{Int(2)}
	if CompareRows(a, b) != -1 || CompareRows(b, a) != 1 {
		t.Errorf("lexicographic ordering broken on second column")
	}
	if CompareRows(a, c) != -1 {
		t.Errorf("first column should dominate")
	}
	if CompareRows(a, a[:1]) != 1 || CompareRows(a[:1], a) != -1 {
		t.Errorf("shorter prefix row should sort first")
	}
	if CompareRows(a, a) != 0 {
		t.Errorf("row must equal itself")
	}
}

func TestCompareRowsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var rows []Row
	for i := 0; i < 200; i++ {
		rows = append(rows, Row{Int(rng.Int63n(10)), Float(float64(rng.Intn(5))), String(string(rune('a' + rng.Intn(4))))})
	}
	sort.Slice(rows, func(i, j int) bool { return CompareRows(rows[i], rows[j]) < 0 })
	for i := 1; i < len(rows); i++ {
		if CompareRows(rows[i-1], rows[i]) > 0 {
			t.Fatalf("rows not sorted at %d: %v > %v", i, rows[i-1], rows[i])
		}
	}
}

func TestProjectAndClone(t *testing.T) {
	r := Row{Int(10), String("x"), Float(2.5)}
	p := r.Project([]int{2, 0})
	if len(p) != 2 || p[0].F != 2.5 || p[1].I != 10 {
		t.Errorf("Project = %v", p)
	}
	cl := r.Clone()
	cl[0] = Int(99)
	if r[0].I != 10 {
		t.Errorf("Clone must not share storage")
	}
}

func TestValueStringAndRaw(t *testing.T) {
	if got := String("it's").String(); got != "'it''s'" {
		t.Errorf("SQL quoting: got %s", got)
	}
	if got := String("plain").Raw(); got != "plain" {
		t.Errorf("Raw: got %s", got)
	}
	if got := Int(-3).String(); got != "-3" {
		t.Errorf("int: got %s", got)
	}
	if got := Null().String(); got != "NULL" {
		t.Errorf("null: got %s", got)
	}
}

func TestWidths(t *testing.T) {
	if Int(1).Width() != 8 || Float(1).Width() != 8 {
		t.Error("numeric width should be 8")
	}
	if String("abcd").Width() != 6 {
		t.Errorf("string width = %d, want 6", String("abcd").Width())
	}
	r := Row{Int(1), String("ab")}
	if r.Width() != 4+8+4 {
		t.Errorf("row width = %d", r.Width())
	}
}

func TestAsFloat(t *testing.T) {
	if Int(3).AsFloat() != 3.0 || Float(2.5).AsFloat() != 2.5 || String("x").AsFloat() != 0 {
		t.Error("AsFloat conversions wrong")
	}
}

// TestKeyEncodingGolden pins the byte stream of Row.Key / AppendKey. The
// shard partition hash (shard.hashShard) and the cross-partition group
// merge (exec.MergePartials) both hang off these bytes: changing them
// moves rows between shards and splits groups across partials.
func TestKeyEncodingGolden(t *testing.T) {
	cases := []struct {
		row  Row
		want string
	}{
		{Row{Int(0)}, "10\x00"},
		{Row{Int(-1)}, "1-1\x00"},
		{Row{Int(35)}, "1z\x00"},
		{Row{Int(36)}, "110\x00"},
		{Row{Int(math.MinInt64)}, "1-1y2p0ij32e8e8\x00"},
		{Row{Int(math.MaxInt64)}, "11y2p0ij32e8e7\x00"},
		{Row{Float(0)}, "20p-1074\x00"},
		{Row{Float(math.Copysign(0, -1))}, "2-0p-1074\x00"},
		{Row{Float(1.5)}, "26755399441055744p-52\x00"},
		{Row{Float(-2.25e10)}, "2-5898240000000000p-18\x00"},
		{Row{Float(math.NaN())}, "2NaN\x00"},
		{Row{Float(math.Inf(1))}, "2+Inf\x00"},
		{Row{Float(math.Inf(-1))}, "2-Inf\x00"},
		{Row{Float(math.SmallestNonzeroFloat64)}, "21p-1074\x00"},
		{Row{Float(math.MaxFloat64)}, "29007199254740991p+971\x00"},
		{Row{String("")}, "3\x00"},
		{Row{String("abc")}, "3abc\x00"},
		{Row{String("\x00")}, "3\x00\x00\x00"},
		{Row{String("a\x00b\x00")}, "3a\x00\x00b\x00\x00\x00"},
		{Row{String("\x00\x00x")}, "3\x00\x00\x00\x00x\x00"},
		{Row{String("héllo")}, "3héllo\x00"},
		{Row{Null()}, "0\x00"},
		{Row{}, ""},
		{Row{Int(1), Int(2)}, "11\x0012\x00"},
		{Row{Int(12)}, "1c\x00"},
		{Row{Null(), String("1\x002"), Float(3), Int(-42)}, "0\x0031\x00\x002\x0026755399441055744p-51\x001-16\x00"},
		{Row{String("1"), String("2")}, "31\x0032\x00"},
	}
	for _, c := range cases {
		if got := c.row.Key(); got != c.want {
			t.Errorf("%v.Key() = %q, want %q", c.row, got, c.want)
		}
	}
}

// builderKey is the strings.Builder encoder Row.Key was before AppendKey,
// kept as the oracle for the byte stream.
func builderKey(r Row) string {
	var sb strings.Builder
	for _, v := range r {
		sb.WriteByte(byte('0' + v.K))
		switch v.K {
		case KindInt:
			sb.WriteString(strconv.FormatInt(v.I, 36))
		case KindFloat:
			sb.WriteString(strconv.FormatFloat(v.F, 'b', -1, 64))
		case KindString:
			sb.WriteString(strings.ReplaceAll(v.Str, "\x00", "\x00\x00"))
		}
		sb.WriteByte(0)
	}
	return sb.String()
}

// TestAppendKeyMatchesRowKey: encoding value by value into a reused
// buffer — what every per-tuple site does — yields exactly Row.Key, and
// both yield the old encoder's bytes, on 10 000 seeded random rows.
func TestAppendKeyMatchesRowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	alphabet := []byte("ab\x00'z\xff")
	randValue := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Null()
		case 1:
			return Int(int64(rng.Uint64()) >> uint(rng.Intn(64)))
		case 2:
			return Float(math.Float64frombits(rng.Uint64()))
		}
		s := make([]byte, rng.Intn(80))
		for i := range s {
			s[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return String(string(s))
	}
	var buf []byte
	for i := 0; i < 10000; i++ {
		r := make(Row, rng.Intn(6))
		for j := range r {
			r[j] = randValue()
		}
		buf = buf[:0]
		for _, v := range r {
			buf = AppendKey(buf, v)
		}
		if want := builderKey(r); r.Key() != want || string(buf) != want {
			t.Fatalf("row %d %v: Key %q, AppendKey %q, want %q", i, r, r.Key(), buf, want)
		}
	}
}

// TestCompareAsMatchesCompare holds the typed comparators to Compare on
// values of their kind, extremes included.
func TestCompareAsMatchesCompare(t *testing.T) {
	ints := []Value{Int(math.MinInt64), Int(-1), Int(0), Int(1), Int(math.MaxInt64)}
	strs := []Value{String(""), String("\x00"), String("a"), String("a\x00"), String("ab"), String("b")}
	floats := []Value{Float(math.Inf(-1)), Float(-1.5), Float(0), Float(2), Int(2)}
	for _, c := range []struct {
		k    Kind
		vals []Value
	}{{KindInt, ints}, {KindString, strs}, {KindFloat, floats}, {KindNull, append([]Value{Null()}, ints...)}} {
		cmp := CompareAs(c.k)
		for _, a := range c.vals {
			for _, b := range c.vals {
				if got, want := cmp(a, b), Compare(a, b); got != want {
					t.Errorf("CompareAs(%v)(%v, %v) = %d, Compare = %d", c.k, a, b, got, want)
				}
			}
		}
	}
}

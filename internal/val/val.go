// Package val defines the value and row model shared by the storage engine,
// indexes, executor and statistics subsystems.
//
// A Value is a small tagged union over the three SQL types the benchmark
// schemas need (BIGINT, DOUBLE, VARCHAR) plus NULL. Values are comparable
// with a total order (NULL sorts first, then by kind, then by content),
// which is the order used by B+-tree index keys.
package val

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	K   Kind
	I   int64
	F   float64
	Str string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// String returns a string value.
func String(s string) Value { return Value{K: KindString, Str: s} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsFloat converts a numeric value to float64. Strings and NULL yield 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return 0
}

// String renders the value in SQL-literal form.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	}
	return "?"
}

// Raw renders the value without SQL quoting, for CSV export.
func (v Value) Raw() string {
	if v.K == KindString {
		return v.Str
	}
	return v.String()
}

// Compare returns -1, 0 or +1 ordering a before, equal to, or after b.
// NULL sorts before everything; mixed numeric kinds compare numerically;
// otherwise values of different kinds order by kind.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	// Numeric cross-kind comparison.
	if (a.K == KindInt || a.K == KindFloat) && (b.K == KindInt || b.K == KindFloat) {
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	// Same kind, non-numeric: strings.
	return strings.Compare(a.Str, b.Str)
}

// CompareAs returns Compare specialised to values that are all of kind k:
// a direct comparison of I for KindInt and of Str for KindString, which is
// exactly Compare's order on those values without its kind dispatch. For
// any other k (NULL, floats, or a caller's marker for mixed kinds) it
// returns Compare itself.
func CompareAs(k Kind) func(a, b Value) int {
	switch k {
	case KindInt:
		return func(a, b Value) int { return cmp.Compare(a.I, b.I) }
	case KindString:
		return func(a, b Value) int { return strings.Compare(a.Str, b.Str) }
	}
	return Compare
}

// Equal reports whether a and b compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Width returns the approximate on-disk width of the value in bytes,
// used by the page and index size models.
func (v Value) Width() int {
	switch v.K {
	case KindInt:
		return 8
	case KindFloat:
		return 8
	case KindString:
		return 2 + len(v.Str)
	}
	return 1
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of the row sharing no backing array with r.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Width returns the approximate on-disk width of the row in bytes.
func (r Row) Width() int {
	w := 4 // header
	for _, v := range r {
		w += v.Width()
	}
	return w
}

// Project returns the sub-row with the given column offsets.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// CompareRows orders rows lexicographically.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Key renders a row as a canonical string, usable as a map key for
// hash joins and grouping: the concatenation of AppendKey over its values.
func (r Row) Key() string {
	buf := make([]byte, 0, 64)
	for _, v := range r {
		buf = AppendKey(buf, v)
	}
	return string(buf)
}

// AppendKey appends the canonical key encoding of v to dst and returns the
// extended buffer. The encoding is unambiguous: each value is prefixed by
// its kind and terminated by a 0x00 byte (escaped in strings). Callers on
// a per-tuple path keep one buffer, re-encode into buf[:0] and look up
// with m[string(buf)], which does not allocate. The byte stream is pinned
// by a golden test: the shard partition hash and the cross-partition
// group merge both hang off it.
func AppendKey(dst []byte, v Value) []byte {
	dst = append(dst, byte('0'+v.K))
	switch v.K {
	case KindInt:
		dst = strconv.AppendInt(dst, v.I, 36)
	case KindFloat:
		dst = strconv.AppendFloat(dst, v.F, 'b', -1, 64)
	case KindString:
		s := v.Str
		for {
			i := strings.IndexByte(s, 0)
			if i < 0 {
				break
			}
			dst = append(append(dst, s[:i]...), 0, 0)
			s = s[i+1:]
		}
		dst = append(dst, s...)
	}
	return append(dst, 0)
}

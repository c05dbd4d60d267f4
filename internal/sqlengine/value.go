package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates runtime value kinds.
type Kind uint8

// Value kinds. Timestamps are microseconds since the epoch, matching the
// paper's microsecond-resolution user-defined time function.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime // microseconds since epoch
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), time (µs)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a double value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewTime returns a timestamp value from microseconds since the epoch.
func NewTime(micros int64) Value { return Value{kind: KindTime, i: micros} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the value as int64 (valid for Int, Bool and Time kinds).
func (v Value) Int() int64 { return v.i }

// Float returns the value as float64, coercing integers.
func (v Value) Float() float64 {
	if v.kind == KindFloat {
		return v.f
	}
	return float64(v.i)
}

// Str returns the underlying string (valid for String kind).
func (v Value) Str() string { return v.s }

// Bool returns the value's truthiness: non-zero numbers and non-empty
// strings are true; NULL is false.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool, KindInt, KindTime:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// Micros returns the timestamp in microseconds (valid for Time and Int).
func (v Value) Micros() int64 { return v.i }

// numeric reports whether the value can participate in arithmetic.
func (v Value) numeric() bool {
	switch v.kind {
	case KindInt, KindFloat, KindBool, KindTime:
		return true
	default:
		return false
	}
}

// String renders the value for result display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt, KindTime:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal (strings quoted and escaped). The
// binlog uses this to interpolate bound parameters into replayable
// statement text, the way MySQL's statement-based log records fully-formed
// statements.
func (v Value) SQL() string { return string(v.appendSQL(nil)) }

// appendSQL appends the SQL literal to b: the renderer of replayable text
// interpolates every argument of every write through here.
func (v Value) appendSQL(b []byte) []byte {
	switch v.kind {
	case KindInt, KindTime:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case KindString:
		b = append(b, '\'')
		for i := 0; i < len(v.s); i++ {
			if c := v.s[i]; c == '\\' || c == '\'' {
				b = append(b, c)
			}
			b = append(b, v.s[i])
		}
		return append(b, '\'')
	}
	return append(b, v.String()...)
}

// Compare orders two values: -1, 0, or +1. NULL sorts before everything and
// equals only NULL. Numeric kinds compare numerically across kinds; strings
// compare lexicographically. Comparing string with numeric kinds compares
// the string's numeric parse when possible, else string forms — mirroring
// MySQL's permissive coercion.
func Compare(a, b Value) int { return compare(&a, &b) }

// compare is Compare over values where they lie. What a typed column meets —
// two integers, two timestamps, two strings — is decided before anything else
// is asked; those are cases of the rules below, taken first.
func compare(a, b *Value) int {
	if a.kind == b.kind {
		switch a.kind {
		case KindInt, KindTime:
			return cmpInt(a.i, b.i)
		case KindString:
			return strings.Compare(a.s, b.s)
		}
	}
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		if a.kind == KindFloat || b.kind == KindFloat {
			return cmpFloat(a.Float(), b.Float())
		}
		return cmpInt(a.i, b.i)
	}
	// Mixed string/numeric: try numeric parse of the string side.
	if a.kind == KindString {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s), 64); err == nil {
			return cmpFloat(f, b.Float())
		}
		return strings.Compare(a.s, b.String())
	}
	if f, err := strconv.ParseFloat(strings.TrimSpace(b.s), 64); err == nil {
		return cmpFloat(a.Float(), f)
	}
	return strings.Compare(a.String(), b.s)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics, with NULL ≠ NULL
// handled by the caller when three-valued logic applies.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// hashKey is v's map key in comparable form, for hash tables probed once per
// row and the row store's index maps, where a string per probe or entry would
// be the whole allocation cost. Values that compare equal across kinds (1 and
// 1.0) share a key. kind is a word wide so that it and n lie without padding
// between them: a map then hashes and compares the two as one run of memory.
type hashKey struct {
	kind uint64 // 0 NULL, 'n' integral number, 'f' other float, 's' string, 'c' composite (store.go)
	n    int64
	s    string
}

func (v Value) hashKey() hashKey {
	switch v.kind {
	case KindNull:
		return hashKey{}
	case KindString:
		return hashKey{kind: 's', s: v.s}
	case KindFloat:
		if v.f == float64(int64(v.f)) {
			return hashKey{kind: 'n', n: int64(v.f)}
		}
		return hashKey{kind: 'f', n: int64(math.Float64bits(v.f))}
	default: // int, bool, time
		return hashKey{kind: 'n', n: v.i}
	}
}

// appendTo appends k to b as one part of a composite key (a GROUP BY tuple, a
// multi-column index entry). A part is self-delimiting — fixed-width number,
// length-prefixed string — so distinct tuples never render alike.
func (k hashKey) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(append(b, byte(k.kind)), uint64(k.n))
	return append(binary.AppendUvarint(b, uint64(len(k.s))), k.s...)
}

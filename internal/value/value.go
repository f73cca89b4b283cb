// Package value implements the SQL scalar value system used throughout the
// engine: typed values (integer, float, string, date), the SQL NULL, and the
// three-valued logic that comparison predicates produce.
//
// The semantics follow the SQL dialect of the paper "Optimization of Nested
// SQL Queries Revisited" (Ganski & Wong, SIGMOD 1987) and its references:
// comparisons involving NULL yield Unknown, aggregate functions other than
// COUNT return NULL over an empty input (the paper assumes MAX({}) = NULL in
// section 5.3), and COUNT ignores NULL inputs, which is what makes the
// outer-join fix for the COUNT bug work.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The kinds of SQL values supported by the engine.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
//
// Values are small (no pointers for numeric kinds) and are passed by value.
// Dates are stored in the I field encoded as described in date.go.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an integer.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the float payload, widening an integer if necessary. It
// panics for non-numeric values.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("value: Float() on %s", v.kind))
	}
}

// Str returns the string payload. It panics if the value is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s", v.kind))
	}
	return v.s
}

// String renders the value the way the paper prints table contents: bare
// numbers and dates, quoted strings, and the special null mark for NULL
// (the paper uses a lambda; we print NULL).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDate:
		return Date{enc: v.i}.String()
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// Literal renders the value as SQL source text the lexer reads back as
// the same value. It is String for every kind but FLOAT, whose display
// form ('g': 1e+21, 3, -0) either does not lex or comes back INTEGER:
// the literal form has no exponent and always a fractional part. Every
// renderer that produces SQL — predicates, query blocks, DML
// statements — goes through it; String stays the display form.
func (v Value) Literal() string {
	if v.kind != KindFloat {
		return v.String()
	}
	s := strconv.FormatFloat(v.f, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// isNumeric reports whether the value is an integer or float.
func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// fnv64 constants for Hash (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit hash consistent with Equal: Equal values hash
// identically (NULL included), so it can partition tuples across parallel
// workers and key hash tables. Because Equal compares numerics across
// int/float, numeric values hash through their float64 payload; large
// integers that collapse under the float conversion also collapse under
// Equal, so consistency is preserved. Unequal values may collide — users
// must confirm with Equal.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset)
	mix8 := func(x uint64) {
		for range 8 {
			h ^= x & 0xff
			h *= fnvPrime
			x >>= 8
		}
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		f := v.Float()
		if f == 0 {
			f = 0 // fold -0.0 into +0.0: they are Equal
		} else if f != f {
			f = math.NaN() // every NaN payload in one bucket: they are Equal
		}
		mix8(math.Float64bits(f))
	case KindString:
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= fnvPrime
		}
	case KindDate:
		h ^= 0xda
		h *= fnvPrime
		mix8(uint64(v.i))
	}
	return h
}

// Equal reports whether two values are identical (same kind and payload).
// Unlike SQL equality it treats NULL as equal to NULL; it exists for tests
// and duplicate elimination, where NULL must group with NULL.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Numeric values compare across int/float.
		if v.isNumeric() && o.isNumeric() {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt, KindDate:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f || (v.f != v.f && o.f != o.f) // NaN equals NaN, as in Compare
	case KindString:
		return v.s == o.s
	default:
		return false
	}
}

package value

import (
	"cmp"
	"fmt"
	"strings"
)

// CompareOp is a scalar comparison operator. The paper's SQL dialect uses
// =, !=, <, >, <=, >= and the System R spellings !< and !> (which the
// parser normalizes to >= and <=).
type CompareOp uint8

// The comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// OpEqNull is NULL-safe equality: NULL <=> NULL is True and
	// NULL <=> x is False, where = yields Unknown. It is not part of the
	// paper's dialect and the parser never produces it; NEST-JA2 uses it
	// for the back-join with the grouped temp table, whose key columns
	// carry the outer relation's NULLs (the COUNT path materializes a
	// CT=0 group for them, and a plain = would drop it — the same class
	// of bug as Kim's COUNT bug, one join later).
	OpEqNull
)

// String renders the operator in SQL syntax.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpEqNull:
		return "<=>"
	default:
		return fmt.Sprintf("CompareOp(%d)", uint8(op))
	}
}

// Flip returns the operator with its operands exchanged: a op b is
// equivalent to b op.Flip() a. The transformation algorithms use it when a
// correlated join predicate is written with the outer column on either side.
func (op CompareOp) Flip() CompareOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default: // =, != and <=> are symmetric
		return op
	}
}

// Compare orders two non-NULL values of compatible types, returning a
// negative, zero, or positive integer. Numeric values compare across
// int/float; strings compare lexicographically; dates chronologically. It
// returns an error for incomparable kinds (e.g. a string against a number),
// which the engine surfaces as a type error at execution time.
//
// NaN (strconv.ParseFloat accepts it, so LoadCSV can store one) orders
// after every other number and equal to itself — PostgreSQL's rule — so
// the order is a strict weak one and sort, DISTINCT, grouping, joins and =
// agree; Hash and Equal follow it.
func Compare(a, b Value) (int, error) {
	switch {
	case a.IsNull() || b.IsNull():
		return 0, fmt.Errorf("value: Compare called on NULL")
	case a.kind == b.kind && (a.kind == KindInt || a.kind == KindDate):
		return cmp.Compare(a.i, b.i), nil
	case a.isNumeric() && b.isNumeric():
		// cmp.Compare puts NaN first; on the negated, exchanged operands
		// that is last, and the order of everything else is unchanged.
		return cmp.Compare(-b.Float(), -a.Float()), nil
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.s, b.s), nil
	default:
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.kind, b.kind)
	}
}

// Apply evaluates a op b under SQL three-valued logic: if either operand is
// NULL the result is Unknown — except OpEqNull, which is definite on every
// input — otherwise it is the definite truth value of the comparison.
func (op CompareOp) Apply(a, b Value) (Tri, error) {
	if a.IsNull() || b.IsNull() {
		if op == OpEqNull {
			return TriOf(a.IsNull() && b.IsNull()), nil
		}
		return Unknown, nil
	}
	c, err := Compare(a, b)
	if err != nil {
		return Unknown, err
	}
	switch op {
	case OpEq, OpEqNull:
		return TriOf(c == 0), nil
	case OpNe:
		return TriOf(c != 0), nil
	case OpLt:
		return TriOf(c < 0), nil
	case OpLe:
		return TriOf(c <= 0), nil
	case OpGt:
		return TriOf(c > 0), nil
	case OpGe:
		return TriOf(c >= 0), nil
	default:
		return Unknown, fmt.Errorf("value: unknown operator %v", op)
	}
}

// TotalCompare is the total order over values used by sorting, merging,
// and duplicate elimination: NULL sorts before every non-NULL value, and
// NULLs are equal to each other. Incomparable kinds (e.g. a string
// against a number) return an error, which execution surfaces as a
// per-query type error — never a panic, since mixed kinds can reach a
// sort or merge-join key from user queries over untyped literals.
func TotalCompare(a, b Value) (int, error) {
	if a.IsNull() {
		if b.IsNull() {
			return 0, nil
		}
		return -1, nil
	}
	if b.IsNull() {
		return 1, nil
	}
	return Compare(a, b)
}

// TotalCompareRef is TotalCompare on values left where they are: a sort
// comparing two rows' key slots decides same-kind INTEGER and DATE pairs
// here, without copying two 40-byte Values per call.
func TotalCompareRef(a, b *Value) (int, error) {
	if a.kind == b.kind && (a.kind == KindInt || a.kind == KindDate) {
		return cmp.Compare(a.i, b.i), nil
	}
	return TotalCompare(*a, *b)
}

package value

import "fmt"

// AggFunc identifies a SQL aggregate function. AggNone marks a plain
// (non-aggregate) select item.
type AggFunc uint8

// The aggregate functions of the paper's dialect. AggCountStar is COUNT(*),
// which counts rows; AggCount is COUNT(column), which counts non-NULL
// values. The distinction drives section 5.2.1 of the paper: after the
// outer-join rewrite, COUNT(*) would count the NULL-padded row of an
// unmatched group as 1, so NEST-JA2 must convert COUNT(*) to COUNT over the
// inner join column.
const (
	AggNone AggFunc = iota
	AggMax
	AggMin
	AggSum
	AggAvg
	AggCount
	AggCountStar
)

// String renders the aggregate name in SQL syntax (without its argument).
func (f AggFunc) String() string {
	switch f {
	case AggNone:
		return ""
	case AggMax:
		return "MAX"
	case AggMin:
		return "MIN"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggCount, AggCountStar:
		return "COUNT"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// IsCount reports whether the function is COUNT in either form. COUNT is
// the aggregate that makes Kim's NEST-JA unsound (the COUNT bug, section
// 5.1) and the one for which NEST-JA2 must use an outer join.
func (f AggFunc) IsCount() bool { return f == AggCount || f == AggCountStar }

// AggFuncByName resolves an aggregate function name (case-insensitively).
func AggFuncByName(name string) (AggFunc, bool) {
	switch upper(name) {
	case "MAX":
		return AggMax, true
	case "MIN":
		return AggMin, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "COUNT":
		return AggCount, true
	default:
		return AggNone, false
	}
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// Accumulator folds a stream of values into an aggregate result.
//
// SQL semantics implemented here, on which the paper's examples depend:
//
//   - COUNT(column) counts non-NULL inputs, so after an outer join the
//     NULL-padded tuples of an unmatched group contribute 0 (section 5.2).
//   - COUNT(*) counts every row.
//   - MAX/MIN/SUM/AVG ignore NULL inputs and return NULL over an empty (or
//     all-NULL) input — the paper assumes MAX({}) = NULL in section 5.3.
type Accumulator struct {
	fn            AggFunc
	intOnly, seen bool
	count         int64
	sum           float64
	sumInt        int64
	best          Value
}

// NewAccumulator returns an empty accumulator for fn, by value: a group
// table holds its groups' accumulators in one slice.
func NewAccumulator(fn AggFunc) Accumulator {
	return Accumulator{fn: fn, intOnly: true}
}

// Add folds one input value.
func (a *Accumulator) Add(v Value) error {
	if a.fn == AggCountStar {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	switch a.fn {
	case AggCount:
		a.count++
	case AggMax:
		if !a.seen {
			a.best, a.seen = v, true
			return nil
		}
		c, err := Compare(v, a.best)
		if err != nil {
			return err
		}
		if c > 0 {
			a.best = v
		}
	case AggMin:
		if !a.seen {
			a.best, a.seen = v, true
			return nil
		}
		c, err := Compare(v, a.best)
		if err != nil {
			return err
		}
		if c < 0 {
			a.best = v
		}
	case AggSum, AggAvg:
		if !v.isNumeric() {
			return fmt.Errorf("value: %s over non-numeric %s", a.fn, v.Kind())
		}
		if v.Kind() != KindInt {
			a.intOnly = false
		} else {
			a.sumInt += v.Int()
		}
		a.sum += v.Float()
		a.count++
	default:
		return fmt.Errorf("value: cannot accumulate into %s", a.fn)
	}
	return nil
}

// Result produces the aggregate value for everything added so far.
func (a *Accumulator) Result() Value {
	switch a.fn {
	case AggCount, AggCountStar:
		return NewInt(a.count)
	case AggMax, AggMin:
		if !a.seen {
			return Null
		}
		return a.best
	case AggSum:
		if a.count == 0 {
			return Null
		}
		if a.intOnly {
			return NewInt(a.sumInt)
		}
		return NewFloat(a.sum)
	case AggAvg:
		if a.count == 0 {
			return Null
		}
		return NewFloat(a.sum / float64(a.count))
	default:
		return Null
	}
}

package value

import (
	"math"
	"testing"
	"testing/quick"
)

// mustParseDate parses a known-good date literal for test data.
func mustParseDate(s string) Date {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindDate:   "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if !Null.IsNull() {
		t.Fatal("Null must be NULL")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float = %v", got)
	}
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("int widened = %v", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str = %q", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Int on string":   func() { NewString("x").Int() },
		"Float on string": func() { NewString("x").Float() },
		"Str on int":      func() { NewInt(1).Str() },
		"DateOf on int":   func() { NewInt(1).DateOf() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("P2"), "'P2'"},
		{NewDateValue(mustParseDate("7-3-79")), "7-3-79"},
		{NewDateValue(mustParseDate("2001-02-03")), "2001-02-03"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.kind, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Null.Equal(Null) {
		t.Error("NULL must Equal NULL (grouping semantics)")
	}
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("3 must Equal 3.0 across kinds")
	}
	if NewInt(3).Equal(NewString("3")) {
		t.Error("3 must not Equal '3'")
	}
	if !NewString("a").Equal(NewString("a")) {
		t.Error("'a' must Equal 'a'")
	}
	if NewString("a").Equal(NewString("b")) {
		t.Error("'a' must not Equal 'b'")
	}
	d := NewDateValue(mustParseDate("1-1-80"))
	if !d.Equal(NewDateValue(mustParseDate("1-1-80"))) {
		t.Error("equal dates must Equal")
	}
}

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewFloat(2), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("a"), 1},
		{NewString("a"), NewString("a"), 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// NaN orders after every other number and equal to itself, whatever its
// payload, under Compare, TotalCompare(Ref), Equal, Hash and =; and the
// by-pointer comparator answers what TotalCompare answers on every pair.
func TestNaNOrderAndTotalCompareRef(t *testing.T) {
	nan, nan2 := NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000abc))
	d := NewDateValue(mustParseDate("1-1-80"))
	ascending := []Value{Null, NewFloat(math.Inf(-1)), NewInt(-3), NewFloat(-0.5), NewInt(0), NewFloat(2), NewInt(7),
		NewFloat(math.Inf(1)), nan}
	for i := range ascending {
		for j := range ascending {
			a, b := ascending[i], ascending[j]
			want := min(max(i-j, -1), 1)
			if c, err := TotalCompare(a, b); err != nil || c != want {
				t.Errorf("TotalCompare(%v, %v) = %d, %v, want %d", a, b, c, err, want)
			}
		}
	}
	if c, err := Compare(nan, nan2); err != nil || c != 0 {
		t.Errorf("Compare(NaN, NaN') = %d, %v, want 0", c, err)
	}
	if !nan.Equal(nan2) || nan.Hash() != nan2.Hash() || nan.Equal(NewInt(3)) || NewFloat(3).Equal(nan) {
		t.Error("NaN must Equal and hash with every NaN and nothing else")
	}
	for op, want := range map[CompareOp]Tri{OpEq: False, OpLt: False, OpGt: True, OpNe: True} {
		if got, err := op.Apply(nan, NewInt(3)); err != nil || got != want {
			t.Errorf("NaN %v 3 = %v, %v, want %v", op, got, err, want)
		}
	}
	if got, _ := OpEq.Apply(nan, nan2); got != True {
		t.Errorf("NaN = NaN is %v, want True", got)
	}
	all := append(ascending, nan2, d, NewDateValue(mustParseDate("1-2-80")), NewString("a"), NewString("b"))
	for _, a := range all {
		for _, b := range all {
			c, err := TotalCompare(a, b)
			rc, rerr := TotalCompareRef(&a, &b)
			if c != rc || (err == nil) != (rerr == nil) {
				t.Errorf("TotalCompareRef(%v, %v) = %d, %v; TotalCompare says %d, %v", a, b, rc, rerr, c, err)
			}
		}
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(Null, NewInt(1)); err == nil {
		t.Error("Compare with NULL must error")
	}
	if _, err := Compare(NewInt(1), NewString("x")); err == nil {
		t.Error("Compare int/string must error")
	}
	if _, err := Compare(NewDateValue(mustParseDate("1-1-80")), NewInt(1)); err == nil {
		t.Error("Compare date/int must error")
	}
}

func TestCompareOpApply(t *testing.T) {
	one, two := NewInt(1), NewInt(2)
	cases := []struct {
		op   CompareOp
		a, b Value
		want Tri
	}{
		{OpEq, one, one, True},
		{OpEq, one, two, False},
		{OpNe, one, two, True},
		{OpNe, one, one, False},
		{OpLt, one, two, True},
		{OpLt, two, one, False},
		{OpLe, one, one, True},
		{OpLe, two, one, False},
		{OpGt, two, one, True},
		{OpGt, one, two, False},
		{OpGe, one, one, True},
		{OpGe, one, two, False},
		{OpEq, Null, one, Unknown},
		{OpLt, one, Null, Unknown},
		{OpNe, Null, Null, Unknown},
		// NULL-safe equality is definite on every input.
		{OpEqNull, one, one, True},
		{OpEqNull, one, two, False},
		{OpEqNull, Null, Null, True},
		{OpEqNull, Null, one, False},
		{OpEqNull, one, Null, False},
	}
	for _, c := range cases {
		got, err := c.op.Apply(c.a, c.b)
		if err != nil {
			t.Fatalf("%v.Apply(%v,%v): %v", c.op, c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v.Apply(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareOpFlip(t *testing.T) {
	ops := []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	// Property: a op b == b flip(op) a.
	f := func(a, b int8) bool {
		va, vb := NewInt(int64(a)), NewInt(int64(b))
		for _, op := range ops {
			direct, _ := op.Apply(va, vb)
			flipped, _ := op.Flip().Apply(vb, va)
			if direct != flipped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareOpString(t *testing.T) {
	want := map[CompareOp]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEqNull: "<=>"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
}

func TestTriLogic(t *testing.T) {
	ts := []Tri{False, Unknown, True}
	// Kleene logic: And is min, Or is max over False < Unknown < True.
	for _, a := range ts {
		for _, b := range ts {
			min, max := a, a
			if b < a {
				min = b
			}
			if b > a {
				max = b
			}
			if got := a.And(b); got != min {
				t.Errorf("And(%v,%v) = %v, want %v", a, b, got, min)
			}
			if got := a.Or(b); got != max {
				t.Errorf("Or(%v,%v) = %v, want %v", a, b, got, max)
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("Not truth table wrong")
	}
	if !True.IsTrue() || False.IsTrue() || Unknown.IsTrue() {
		t.Error("IsTrue wrong")
	}
	if TriOf(true) != True || TriOf(false) != False {
		t.Error("TriOf wrong")
	}
	if True.String() != "true" || False.String() != "false" || Unknown.String() != "unknown" {
		t.Error("Tri.String wrong")
	}
}

func TestTotalCompareNulls(t *testing.T) {
	if c, err := TotalCompare(Null, NewInt(-100)); err != nil || c >= 0 {
		t.Errorf("NULL must sort before any value: %d, %v", c, err)
	}
	if c, err := TotalCompare(NewInt(-100), Null); err != nil || c <= 0 {
		t.Errorf("no value sorts before NULL: %d, %v", c, err)
	}
	if c, err := TotalCompare(Null, Null); err != nil || c != 0 {
		t.Errorf("TotalCompare(NULL,NULL) = %d, %v, want 0", c, err)
	}
	if c, err := TotalCompare(NewInt(1), NewInt(2)); err != nil || c != -1 {
		t.Errorf("TotalCompare(1,2) = %d, %v", c, err)
	}
	if c, err := TotalCompare(NewInt(2), NewInt(1)); err != nil || c != 1 {
		t.Errorf("TotalCompare(2,1) = %d, %v", c, err)
	}
	if _, err := TotalCompare(NewInt(1), NewString("a")); err == nil {
		t.Error("TotalCompare across kinds must error, not panic")
	}
}

func TestDateParsing(t *testing.T) {
	cases := []struct {
		in      string
		y, m, d int
	}{
		{"7-3-79", 1979, 7, 3},
		{"1-1-80", 1980, 1, 1},
		{"8/14/77", 1977, 8, 14},
		{"6/22/76", 1976, 6, 22},
		{"1979-07-03", 1979, 7, 3},
	}
	for _, c := range cases {
		d, err := ParseDate(c.in)
		if err != nil {
			t.Fatalf("ParseDate(%q): %v", c.in, err)
		}
		if d.Year() != c.y || d.Month() != c.m || d.Day() != c.d {
			t.Errorf("ParseDate(%q) = %d-%d-%d", c.in, d.Year(), d.Month(), d.Day())
		}
	}
}

func TestDateParsingErrors(t *testing.T) {
	for _, in := range []string{"x-y-z", "1-1", "13-1-79", "0-1-79", "1-32-79", "", "1-1-80-2"} {
		if _, err := ParseDate(in); err == nil {
			t.Errorf("ParseDate(%q): expected error", in)
		}
	}
}

func TestDateOrdering(t *testing.T) {
	early := NewDateValue(mustParseDate("6/22/76"))
	late := NewDateValue(mustParseDate("1-1-80"))
	tri, err := OpLt.Apply(early, late)
	if err != nil || tri != True {
		t.Errorf("6/22/76 < 1-1-80 = %v, %v", tri, err)
	}
	// The paper's restriction SHIPDATE < 1-1-80 in Kiessling's Q2.
	cutoff := NewDateValue(mustParseDate("1-1-80"))
	ship := NewDateValue(mustParseDate("5-7-83"))
	tri, _ = OpLt.Apply(ship, cutoff)
	if tri != False {
		t.Errorf("5-7-83 < 1-1-80 must be false, got %v", tri)
	}
}

func TestAggFuncByName(t *testing.T) {
	for name, want := range map[string]AggFunc{
		"MAX": AggMax, "min": AggMin, "Sum": AggSum, "AVG": AggAvg, "count": AggCount,
	} {
		got, ok := AggFuncByName(name)
		if !ok || got != want {
			t.Errorf("AggFuncByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AggFuncByName("MEDIAN"); ok {
		t.Error("MEDIAN must not resolve")
	}
}

func TestAggFuncString(t *testing.T) {
	if AggMax.String() != "MAX" || AggCount.String() != "COUNT" || AggCountStar.String() != "COUNT" {
		t.Error("AggFunc.String wrong")
	}
	if AggNone.String() != "" {
		t.Error("AggNone.String must be empty")
	}
	if !AggCount.IsCount() || !AggCountStar.IsCount() || AggMax.IsCount() {
		t.Error("IsCount wrong")
	}
}

func accumulate(t *testing.T, fn AggFunc, vs ...Value) Value {
	t.Helper()
	acc := NewAccumulator(fn)
	for _, v := range vs {
		if err := acc.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return acc.Result()
}

func TestAccumulatorEmptyInputs(t *testing.T) {
	// MAX({}) = NULL — the assumption in section 5.3 of the paper.
	for _, fn := range []AggFunc{AggMax, AggMin, AggSum, AggAvg} {
		if got := accumulate(t, fn); !got.IsNull() {
			t.Errorf("%v over empty = %v, want NULL", fn, got)
		}
	}
	// COUNT({}) = 0 — the value Kim's NEST-JA can never produce (the
	// COUNT bug, section 5.1).
	for _, fn := range []AggFunc{AggCount, AggCountStar} {
		got := accumulate(t, fn)
		if got.IsNull() || got.Int() != 0 {
			t.Errorf("%v over empty = %v, want 0", fn, got)
		}
	}
}

func TestAccumulatorNullHandling(t *testing.T) {
	// COUNT(col) ignores NULLs; COUNT(*) counts rows. This is exactly why
	// NEST-JA2 must rewrite COUNT(*) to COUNT(join column) after the outer
	// join (section 5.2.1).
	if got := accumulate(t, AggCount, Null, NewInt(1), Null); got.Int() != 1 {
		t.Errorf("COUNT with NULLs = %v, want 1", got)
	}
	if got := accumulate(t, AggCountStar, Null, NewInt(1), Null); got.Int() != 3 {
		t.Errorf("COUNT(*) with NULLs = %v, want 3", got)
	}
	if got := accumulate(t, AggMax, Null, Null); !got.IsNull() {
		t.Errorf("MAX over all-NULL = %v, want NULL", got)
	}
	if got := accumulate(t, AggSum, Null, NewInt(2), NewInt(3)); got.Int() != 5 {
		t.Errorf("SUM ignoring NULLs = %v, want 5", got)
	}
}

func TestAccumulatorMaxMin(t *testing.T) {
	vs := []Value{NewInt(4), NewInt(2), NewInt(5)}
	if got := accumulate(t, AggMax, vs...); got.Int() != 5 {
		t.Errorf("MAX = %v", got)
	}
	if got := accumulate(t, AggMin, vs...); got.Int() != 2 {
		t.Errorf("MIN = %v", got)
	}
	// Dates aggregate too (MAX(SHIPDATE) style).
	d1 := NewDateValue(mustParseDate("7-3-79"))
	d2 := NewDateValue(mustParseDate("5-7-83"))
	if got := accumulate(t, AggMax, d1, d2); !got.Equal(d2) {
		t.Errorf("MAX(dates) = %v", got)
	}
	if got := accumulate(t, AggMin, d1, d2); !got.Equal(d1) {
		t.Errorf("MIN(dates) = %v", got)
	}
}

func TestAccumulatorSumAvg(t *testing.T) {
	if got := accumulate(t, AggSum, NewInt(1), NewInt(2), NewInt(3)); got.Kind() != KindInt || got.Int() != 6 {
		t.Errorf("SUM(ints) = %v, want int 6", got)
	}
	if got := accumulate(t, AggSum, NewInt(1), NewFloat(0.5)); got.Kind() != KindFloat || got.Float() != 1.5 {
		t.Errorf("SUM(mixed) = %v, want 1.5", got)
	}
	if got := accumulate(t, AggAvg, NewInt(1), NewInt(2)); got.Float() != 1.5 {
		t.Errorf("AVG = %v, want 1.5", got)
	}
}

func TestAccumulatorErrors(t *testing.T) {
	acc := NewAccumulator(AggSum)
	if err := acc.Add(NewString("x")); err == nil {
		t.Error("SUM over string must error")
	}
	acc = NewAccumulator(AggMax)
	if err := acc.Add(NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(NewString("x")); err == nil {
		t.Error("MAX over mixed kinds must error")
	}
	acc = NewAccumulator(AggNone)
	if err := acc.Add(NewInt(1)); err == nil {
		t.Error("accumulate into AggNone must error")
	}
	if !NewAccumulator(AggNone).Result().IsNull() {
		t.Error("AggNone result must be NULL")
	}
}

// Property: for any multiset of ints, COUNT = len, MAX/MIN bound every
// element, SUM is the arithmetic sum, AVG = SUM/COUNT.
func TestAccumulatorProperties(t *testing.T) {
	f := func(xs []int16) bool {
		vs := make([]Value, len(xs))
		var sum int64
		for i, x := range xs {
			vs[i] = NewInt(int64(x))
			sum += int64(x)
		}
		if got := accumulate(t, AggCount, vs...); got.Int() != int64(len(xs)) {
			return false
		}
		if got := accumulate(t, AggSum, vs...); len(xs) > 0 && got.Int() != sum {
			return false
		}
		if len(xs) == 0 {
			return true
		}
		maxV := accumulate(t, AggMax, vs...)
		minV := accumulate(t, AggMin, vs...)
		for _, v := range vs {
			cMax, err1 := TotalCompare(maxV, v)
			cMin, err2 := TotalCompare(v, minV)
			if err1 != nil || err2 != nil || cMax < 0 || cMin < 0 {
				return false
			}
		}
		avg := accumulate(t, AggAvg, vs...)
		return avg.Float() == float64(sum)/float64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

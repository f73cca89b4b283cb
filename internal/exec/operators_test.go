package exec_test

import (
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

func intv(v int64) value.Value { return value.NewInt(v) }

// loadFile creates a heap file of two-column tuples.
func loadFile(s *storage.Store, name string, tpp int, rows [][2]int64) *storage.HeapFile {
	f, err := s.Create(name, tpp)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		f.Append(storage.Tuple{intv(r[0]), intv(r[1])})
	}
	f.Seal()
	return f
}

func scanOf(f *storage.HeapFile, binding string) *exec.SeqScan {
	return exec.NewSeqScan(f, binding, []string{"K", "V"})
}

func drainInts(t *testing.T, op exec.Operator) [][]int64 {
	t.Helper()
	rows, err := exec.Drain(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, len(rows))
	for i, r := range rows {
		row := make([]int64, len(r))
		for j, v := range r {
			if v.IsNull() {
				row[j] = -999 // sentinel for NULL in these integer tests
			} else {
				row[j] = v.Int()
			}
		}
		out[i] = row
	}
	return out
}

func eqRows(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestSeqScanAndRescan(t *testing.T) {
	s := storage.NewStore(4)
	f := loadFile(s, "R", 2, [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	scan := scanOf(f, "R")
	got := drainInts(t, scan)
	if !eqRows(got, [][]int64{{1, 10}, {2, 20}, {3, 30}}) {
		t.Errorf("scan = %v", got)
	}
	// Re-open rescans from the start.
	got = drainInts(t, scan)
	if len(got) != 3 {
		t.Errorf("rescan = %v", got)
	}
}

func TestFilterAndProject(t *testing.T) {
	s := storage.NewStore(4)
	f := loadFile(s, "R", 2, [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	scan := scanOf(f, "R")
	pred, err := exec.CompileConjuncts([]ast.Predicate{
		&ast.Comparison{
			Left:  ast.ColumnRef{Table: "R", Column: "V"},
			Op:    value.OpGt,
			Right: ast.Const{Val: intv(15)},
		},
	}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	filtered := &exec.Filter{Child: scan, Pred: pred}
	proj := exec.NewProject(filtered, []int{1}, nil)
	got := drainInts(t, proj)
	if !eqRows(got, [][]int64{{20}, {30}}) {
		t.Errorf("filter+project = %v", got)
	}
	if proj.Schema()[0] != (exec.ColID{Table: "R", Column: "V"}) {
		t.Errorf("project schema = %v", proj.Schema())
	}
}

func TestProjectRename(t *testing.T) {
	s := storage.NewStore(4)
	f := loadFile(s, "R", 2, [][2]int64{{1, 10}})
	proj := exec.NewProject(scanOf(f, "R"), []int{0}, []exec.ColID{{Column: "SUPPNUM"}})
	if proj.Schema()[0] != (exec.ColID{Column: "SUPPNUM"}) {
		t.Errorf("renamed schema = %v", proj.Schema())
	}
}

func TestCompileConjunctsErrors(t *testing.T) {
	s := storage.NewStore(4)
	f := loadFile(s, "R", 2, [][2]int64{{1, 10}})
	sch := scanOf(f, "R").Schema()
	cases := []ast.Predicate{
		&ast.InPred{Left: ast.ColumnRef{Table: "R", Column: "K"}, Sub: &ast.QueryBlock{}},
		&ast.Comparison{Left: ast.ColumnRef{Table: "R", Column: "K"}, Op: value.OpEq,
			Right: ast.ColumnRef{Table: "X", Column: "Y"}},
		&ast.Comparison{Left: ast.ColumnRef{Table: "R", Column: "K"}, Op: value.OpEq,
			Right: ast.ColumnRef{Table: "R", Column: "V"}, LeftOuter: true},
	}
	for _, p := range cases {
		if _, err := exec.CompileConjuncts([]ast.Predicate{p}, sch); err == nil {
			t.Errorf("CompileConjuncts(%s): expected error", p)
		}
	}
}

func TestSortInMemory(t *testing.T) {
	s := storage.NewStore(8)
	f := loadFile(s, "R", 4, [][2]int64{{3, 1}, {1, 2}, {2, 3}})
	s.ResetStats()
	srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: s, TuplesPerPage: 4}
	got := drainInts(t, srt)
	if !eqRows(got, [][]int64{{1, 2}, {2, 3}, {3, 1}}) {
		t.Errorf("sorted = %v", got)
	}
	// One page input, fits in memory: only the scan's read.
	if st := s.Stats(); st.Reads != 1 || st.Writes != 0 {
		t.Errorf("in-memory sort I/O = %+v", st)
	}
}

func TestSortExternalIO(t *testing.T) {
	// B = 3 buffer pages, 1 tuple per page, 12 tuples = 12 pages. Runs of
	// 3 pages -> 4 runs; fan-in B-1 = 2: merge 4 -> 2 -> 1.
	s := storage.NewStore(3)
	rows := make([][2]int64, 12)
	for i := range rows {
		rows[i] = [2]int64{int64(11 - i), int64(i)}
	}
	f := loadFile(s, "R", 1, rows)
	s.ResetStats()
	srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: s, TuplesPerPage: 1}
	got := drainInts(t, srt)
	for i := range got {
		if got[i][0] != int64(i) {
			t.Fatalf("sorted order wrong: %v", got)
		}
	}
	// Cost: read input 12; write 4 runs (12 pages); merge pass 1: read 12,
	// write 12 (2 runs); merge pass 2: read 12, write 12 (1 run); Next()
	// streams the final run: read 12. The model's 2·P·log_{B-1}(P) with
	// P=12, B-1=2 gives ~86; measured is the same order.
	st := s.Stats()
	if st.Reads != 12+12+12+12 || st.Writes != 12+12+12 {
		t.Errorf("external sort I/O = %+v, want 48 reads + 36 writes", st)
	}
	if err := srt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSortByMultipleKeysAndNulls(t *testing.T) {
	s := storage.NewStore(8)
	f, _ := s.Create("R", 4)
	f.Append(storage.Tuple{intv(1), value.Null})
	f.Append(storage.Tuple{value.Null, intv(5)})
	f.Append(storage.Tuple{intv(1), intv(2)})
	f.Seal()
	srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0, 1}, Store: s}
	rows, err := exec.Drain(srt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// NULLs sort first.
	if !rows[0][0].IsNull() {
		t.Errorf("first row = %v", rows[0])
	}
	if !rows[1][1].IsNull() {
		t.Errorf("second row = %v (NULL value sorts before 2)", rows[1])
	}
}

func TestDistinct(t *testing.T) {
	s := storage.NewStore(8)
	f := loadFile(s, "R", 4, [][2]int64{{1, 1}, {2, 2}, {2, 2}, {2, 3}, {3, 3}})
	d := &exec.Distinct{Child: scanOf(f, "R")} // input already sorted
	got := drainInts(t, d)
	if !eqRows(got, [][]int64{{1, 1}, {2, 2}, {2, 3}, {3, 3}}) {
		t.Errorf("distinct = %v", got)
	}
}

func TestDistinctTreatsNullsEqual(t *testing.T) {
	s := storage.NewStore(8)
	f, _ := s.Create("R", 4)
	f.Append(storage.Tuple{value.Null})
	f.Append(storage.Tuple{value.Null})
	f.Append(storage.Tuple{intv(1)})
	f.Seal()
	d := &exec.Distinct{Child: exec.NewSeqScan(f, "R", []string{"K"})}
	rows, err := exec.Drain(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("distinct with NULLs = %v", rows)
	}
}

func TestMergeJoinInner(t *testing.T) {
	s := storage.NewStore(8)
	l := loadFile(s, "L", 4, [][2]int64{{1, 10}, {2, 20}, {2, 21}, {4, 40}})
	r := loadFile(s, "R", 4, [][2]int64{{1, 100}, {2, 200}, {2, 201}, {3, 300}})
	j := &exec.MergeJoin{Left: scanOf(l, "L"), Right: scanOf(r, "R"), LeftKey: 0, RightKey: 0}
	got := drainInts(t, j)
	want := [][]int64{
		{1, 10, 1, 100},
		{2, 20, 2, 200}, {2, 20, 2, 201},
		{2, 21, 2, 200}, {2, 21, 2, 201},
	}
	if !eqRows(got, want) {
		t.Errorf("merge join = %v, want %v", got, want)
	}
}

func TestMergeJoinLeftOuter(t *testing.T) {
	// The paper's outer join example (section 5.2): R{A,B} =+ S{B,C,E}
	// keeps A with a NULL partner.
	s := storage.NewStore(8)
	l := loadFile(s, "L", 4, [][2]int64{{1, 10}, {2, 20}, {4, 40}})
	r := loadFile(s, "R", 4, [][2]int64{{2, 200}, {3, 300}})
	j := &exec.MergeJoin{Left: scanOf(l, "L"), Right: scanOf(r, "R"), LeftKey: 0, RightKey: 0, Outer: true}
	got := drainInts(t, j)
	want := [][]int64{
		{1, 10, -999, -999},
		{2, 20, 2, 200},
		{4, 40, -999, -999},
	}
	if !eqRows(got, want) {
		t.Errorf("outer merge join = %v, want %v", got, want)
	}
}

func TestMergeJoinNullKeys(t *testing.T) {
	s := storage.NewStore(8)
	l, _ := s.Create("L", 4)
	l.Append(storage.Tuple{value.Null, intv(1)})
	l.Append(storage.Tuple{intv(2), intv(2)})
	l.Seal()
	r, _ := s.Create("R", 4)
	r.Append(storage.Tuple{value.Null, intv(9)})
	r.Append(storage.Tuple{intv(2), intv(8)})
	r.Seal()
	// Inner: NULL keys never match.
	j := &exec.MergeJoin{Left: scanOf(l, "L"), Right: scanOf(r, "R"), LeftKey: 0, RightKey: 0}
	got := drainInts(t, j)
	if !eqRows(got, [][]int64{{2, 2, 2, 8}}) {
		t.Errorf("inner with NULL keys = %v", got)
	}
	// Outer: NULL-keyed left rows are padded, not matched.
	j = &exec.MergeJoin{Left: scanOf(l, "L"), Right: scanOf(r, "R"), LeftKey: 0, RightKey: 0, Outer: true}
	got = drainInts(t, j)
	want := [][]int64{{-999, 1, -999, -999}, {2, 2, 2, 8}}
	if !eqRows(got, want) {
		t.Errorf("outer with NULL keys = %v", got)
	}
}

func TestNestedLoopJoinTheta(t *testing.T) {
	// The section 5.3.1 shape: SUPPLY.PNUM < PARTS.PNUM.
	s := storage.NewStore(8)
	l := loadFile(s, "L", 4, [][2]int64{{3, 0}, {8, 4}})
	r := loadFile(s, "R", 4, [][2]int64{{3, 4}, {9, 5}})
	left := scanOf(l, "L")
	sch := left.Schema().Concat(exec.RowSchema{{Table: "R", Column: "K"}, {Table: "R", Column: "V"}})
	pred, err := exec.CompileConjuncts([]ast.Predicate{
		&ast.Comparison{
			Left:  ast.ColumnRef{Table: "R", Column: "K"},
			Op:    value.OpLt,
			Right: ast.ColumnRef{Table: "L", Column: "K"},
		},
	}, sch)
	if err != nil {
		t.Fatal(err)
	}
	j := &exec.NestedLoopJoin{
		Left: left, Right: r,
		RightSch: exec.RowSchema{{Table: "R", Column: "K"}, {Table: "R", Column: "V"}},
		Pred:     pred,
	}
	got := drainInts(t, j)
	if !eqRows(got, [][]int64{{8, 4, 3, 4}}) {
		t.Errorf("theta NL join = %v", got)
	}
}

func TestNestedLoopJoinOuter(t *testing.T) {
	s := storage.NewStore(8)
	l := loadFile(s, "L", 4, [][2]int64{{1, 0}, {5, 4}})
	r := loadFile(s, "R", 4, [][2]int64{{3, 4}})
	left := scanOf(l, "L")
	rightSch := exec.RowSchema{{Table: "R", Column: "K"}, {Table: "R", Column: "V"}}
	pred, err := exec.CompileConjuncts([]ast.Predicate{
		&ast.Comparison{
			Left:  ast.ColumnRef{Table: "R", Column: "K"},
			Op:    value.OpLt,
			Right: ast.ColumnRef{Table: "L", Column: "K"},
		},
	}, left.Schema().Concat(rightSch))
	if err != nil {
		t.Fatal(err)
	}
	j := &exec.NestedLoopJoin{Left: left, Right: r, RightSch: rightSch, Pred: pred, Outer: true}
	got := drainInts(t, j)
	want := [][]int64{{1, 0, -999, -999}, {5, 4, 3, 4}}
	if !eqRows(got, want) {
		t.Errorf("outer theta NL join = %v, want %v", got, want)
	}
}

func TestGroupAggSorted(t *testing.T) {
	s := storage.NewStore(8)
	f := loadFile(s, "R", 4, [][2]int64{{1, 10}, {1, 20}, {2, 5}, {3, 7}})
	g := &exec.GroupAgg{
		Child:     scanOf(f, "R"),
		GroupCols: []int{0},
		Items: []exec.GroupItem{
			{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
			{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CT"}},
			{Agg: value.AggMax, Col: 1, Out: exec.ColID{Column: "MX"}},
			{Agg: value.AggSum, Col: 1, Out: exec.ColID{Column: "SM"}},
		},
	}
	got := drainInts(t, g)
	want := [][]int64{{1, 2, 20, 30}, {2, 1, 5, 5}, {3, 1, 7, 7}}
	if !eqRows(got, want) {
		t.Errorf("group agg = %v, want %v", got, want)
	}
}

// After an outer join, unmatched groups carry NULL in the inner columns:
// COUNT(inner col) = 0 for them — the heart of the section 5.2 fix.
func TestGroupAggCountOverOuterJoinNulls(t *testing.T) {
	s := storage.NewStore(8)
	f, _ := s.Create("R", 4)
	f.Append(storage.Tuple{intv(3), intv(7)})
	f.Append(storage.Tuple{intv(3), intv(9)})
	f.Append(storage.Tuple{intv(8), value.Null}) // NULL-padded outer-join row
	f.Seal()
	g := &exec.GroupAgg{
		Child:     exec.NewSeqScan(f, "R", []string{"K", "V"}),
		GroupCols: []int{0},
		Items: []exec.GroupItem{
			{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
			{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CT"}},
		},
	}
	got := drainInts(t, g)
	want := [][]int64{{3, 2}, {8, 0}}
	if !eqRows(got, want) {
		t.Errorf("COUNT over padded rows = %v, want %v", got, want)
	}
	// COUNT(*) would wrongly count the padded row — section 5.2.1.
	g = &exec.GroupAgg{
		Child:     exec.NewSeqScan(f, "R", []string{"K", "V"}),
		GroupCols: []int{0},
		Items: []exec.GroupItem{
			{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
			{Agg: value.AggCountStar, Col: -1, Out: exec.ColID{Column: "CT"}},
		},
	}
	got = drainInts(t, g)
	want = [][]int64{{3, 2}, {8, 1}}
	if !eqRows(got, want) {
		t.Errorf("COUNT(*) over padded rows = %v, want %v", got, want)
	}
}

func TestGroupAggGlobalEmpty(t *testing.T) {
	s := storage.NewStore(8)
	f, _ := s.Create("R", 4)
	f.Seal()
	g := &exec.GroupAgg{
		Child: exec.NewSeqScan(f, "R", []string{"K", "V"}),
		Items: []exec.GroupItem{
			{Agg: value.AggCount, Col: 0, Out: exec.ColID{Column: "CT"}},
			{Agg: value.AggMax, Col: 1, Out: exec.ColID{Column: "MX"}},
		},
	}
	rows, err := exec.Drain(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("global empty agg = %v, want one row (0, NULL)", rows)
	}
	// With GROUP BY, empty input yields no rows.
	g2 := &exec.GroupAgg{
		Child:     exec.NewSeqScan(f, "R", []string{"K", "V"}),
		GroupCols: []int{0},
		Items: []exec.GroupItem{
			{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
			{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CT"}},
		},
	}
	rows, err = exec.Drain(g2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("grouped empty agg = %v, want none", rows)
	}
}

func TestMaterialize(t *testing.T) {
	s := storage.NewStore(8)
	f := loadFile(s, "R", 4, [][2]int64{{1, 10}, {2, 20}})
	s.ResetStats()
	mat, err := exec.Materialize(scanOf(f, "R"), s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mat.NumTuples() != 2 || mat.NumPages() != 1 {
		t.Errorf("materialized: %d tuples, %d pages", mat.NumTuples(), mat.NumPages())
	}
	if st := s.Stats(); st.Writes != 1 {
		t.Errorf("materialize writes = %d, want 1", st.Writes)
	}
}

// Property: MergeJoin on sorted inputs equals a naive nested-loop equality
// join, inner and left-outer, for arbitrary key multisets.
func TestMergeJoinEquivalentToNaive(t *testing.T) {
	check := func(lk, rk []uint8, outer bool) bool {
		s := storage.NewStore(8)
		lrows := make([][2]int64, len(lk))
		for i, k := range lk {
			lrows[i] = [2]int64{int64(k % 8), int64(i)}
		}
		rrows := make([][2]int64, len(rk))
		for i, k := range rk {
			rrows[i] = [2]int64{int64(k % 8), int64(100 + i)}
		}
		l := loadFile(s, "L", 4, lrows)
		r := loadFile(s, "R", 4, rrows)
		lsort := &exec.Sort{Child: scanOf(l, "L"), Keys: []int{0}, Store: s}
		rsort := &exec.Sort{Child: scanOf(r, "R"), Keys: []int{0}, Store: s}
		j := &exec.MergeJoin{Left: lsort, Right: rsort, LeftKey: 0, RightKey: 0, Outer: outer}
		rows, err := exec.Drain(j, nil)
		if err != nil {
			return false
		}
		// Naive join for comparison.
		var naive [][4]int64
		for _, lr := range lrows {
			matched := false
			for _, rr := range rrows {
				if lr[0] == rr[0] {
					naive = append(naive, [4]int64{lr[0], lr[1], rr[0], rr[1]})
					matched = true
				}
			}
			if outer && !matched {
				naive = append(naive, [4]int64{lr[0], lr[1], -999, -999})
			}
		}
		if len(rows) != len(naive) {
			return false
		}
		counts := make(map[[4]int64]int)
		for _, n := range naive {
			counts[n]++
		}
		for _, r := range rows {
			var key [4]int64
			for j := range 4 {
				if r[j].IsNull() {
					key[j] = -999
				} else {
					key[j] = r[j].Int()
				}
			}
			counts[key]--
			if counts[key] < 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(lk, rk []uint8) bool { return check(lk, rk, false) }, cfg); err != nil {
		t.Errorf("inner: %v", err)
	}
	if err := quick.Check(func(lk, rk []uint8) bool { return check(lk, rk, true) }, cfg); err != nil {
		t.Errorf("outer: %v", err)
	}
}

// Property: external Sort output equals in-memory sort for arbitrary
// inputs and small buffer pools.
func TestSortEquivalentToInMemory(t *testing.T) {
	check := func(keys []uint16, bufSmall uint8) bool {
		s := storage.NewStore(int(bufSmall%4) + 3)
		rows := make([][2]int64, len(keys))
		for i, k := range keys {
			rows[i] = [2]int64{int64(k % 50), int64(i)}
		}
		f := loadFile(s, "R", 2, rows)
		srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: s, TuplesPerPage: 2}
		got, err := exec.Drain(srt, nil)
		if err != nil {
			return false
		}
		if len(got) != len(rows) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1][0].Int() > got[i][0].Int() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Section 7.2's claim, measured: "The merge join method of performing an
// outer join will have a cost function identical to that for a standard
// join, since the two relations are scanned in sorted order, and no extra
// cost is involved in determining which tuples have no matching tuples."
// Reads must be identical; the outer result may only be slightly larger.
func TestOuterMergeJoinCostEqualsStandard(t *testing.T) {
	build := func(outer bool) (reads int64, rows int) {
		s := storage.NewStore(4)
		lrows := make([][2]int64, 60)
		for i := range lrows {
			lrows[i] = [2]int64{int64(i), int64(i % 7)}
		}
		rrows := make([][2]int64, 40)
		for i := range rrows {
			rrows[i] = [2]int64{int64(i * 2), int64(i % 5)} // half the keys match
		}
		l := loadFile(s, "L", 4, lrows)
		r := loadFile(s, "R", 4, rrows)
		s.ResetStats()
		j := &exec.MergeJoin{
			Left:    scanOf(l, "L"),
			Right:   scanOf(r, "R"),
			LeftKey: 0, RightKey: 0,
			Outer: outer,
		}
		out, err := exec.Drain(j, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.Stats().Reads, len(out)
	}
	innerReads, innerRows := build(false)
	outerReads, outerRows := build(true)
	if innerReads != outerReads {
		t.Errorf("outer merge join reads %d != standard %d", outerReads, innerReads)
	}
	if outerRows <= innerRows {
		t.Errorf("outer join must add padded rows: %d vs %d", outerRows, innerRows)
	}
}

// Property: GroupAgg over sorted input equals a naive per-key aggregation
// for COUNT, SUM, MAX across arbitrary key multisets.
func TestGroupAggEquivalentToNaive(t *testing.T) {
	check := func(keys []uint8) bool {
		s := storage.NewStore(8)
		rows := make([][2]int64, len(keys))
		for i, k := range keys {
			rows[i] = [2]int64{int64(k % 6), int64(i % 11)}
		}
		f := loadFile(s, "R", 4, rows)
		g := &exec.GroupAgg{
			Child:     &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: s},
			GroupCols: []int{0},
			Items: []exec.GroupItem{
				{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
				{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CT"}},
				{Agg: value.AggSum, Col: 1, Out: exec.ColID{Column: "SM"}},
				{Agg: value.AggMax, Col: 1, Out: exec.ColID{Column: "MX"}},
			},
		}
		got, err := exec.Drain(g, nil)
		if err != nil {
			return false
		}
		type agg struct{ ct, sm, mx int64 }
		naive := map[int64]*agg{}
		for _, r := range rows {
			a, ok := naive[r[0]]
			if !ok {
				a = &agg{mx: -1 << 62}
				naive[r[0]] = a
			}
			a.ct++
			a.sm += r[1]
			if r[1] > a.mx {
				a.mx = r[1]
			}
		}
		if len(got) != len(naive) {
			return false
		}
		for _, row := range got {
			a := naive[row[0].Int()]
			if a == nil || row[1].Int() != a.ct || row[2].Int() != a.sm || row[3].Int() != a.mx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: AntiJoin equals the naive NOT IN evaluation over arbitrary
// multisets including NULLs.
func TestAntiJoinEquivalentToNaive(t *testing.T) {
	check := func(lk, rk []uint8) bool {
		s := storage.NewStore(8)
		mk := func(k uint8) value.Value {
			if k%5 == 0 {
				return value.Null
			}
			return value.NewInt(int64(k % 4))
		}
		l, _ := s.Create("L", 4)
		for i, k := range lk {
			l.Append(storage.Tuple{mk(k), value.NewInt(int64(i))})
		}
		l.Seal()
		r, _ := s.Create("R", 4)
		for _, k := range rk {
			r.Append(storage.Tuple{mk(k)})
		}
		r.Seal()

		aj := &exec.AntiJoin{
			Left:      scanOf(l, "L"),
			Right:     r,
			RightSch:  exec.RowSchema{{Table: "R", Column: "M"}},
			LeftVal:   func(t storage.Tuple) value.Value { return t[0] },
			MemberCol: 0,
		}
		got, err := exec.Drain(aj, nil)
		if err != nil {
			return false
		}
		// Naive NOT IN semantics.
		var want int
		for _, k := range lk {
			lv := mk(k)
			if len(rk) == 0 {
				want++
				continue
			}
			if lv.IsNull() {
				continue
			}
			matched, sawNull := false, false
			for _, rkv := range rk {
				mv := mk(rkv)
				if mv.IsNull() {
					sawNull = true
				} else if mv.Int() == lv.Int() {
					matched = true
				}
			}
			if !matched && !sawNull {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A theta join and a correlated NOT IN evaluate their predicate on a
// scratch row: 100 × 100 pairs allocate for the few rows that qualify (and
// the page reads), never per pair.
func TestJoinsBuildNoRowBeforeItsPredicateHolds(t *testing.T) {
	s := storage.NewStore(8)
	var rows [][2]int64
	for i := range int64(100) {
		rows = append(rows, [2]int64{i, i})
	}
	left, right := loadFile(s, "L", 100, rows), loadFile(s, "R", 100, rows)
	// L.k > R.k + 96: six of the 10,000 pairs.
	theta := func(p storage.Tuple) (value.Tri, error) { return value.TriOf(p[0].Int() > p[2].Int()+96), nil }
	drain := func(op exec.Operator, want int) {
		if rows, err := exec.Drain(op, nil); err != nil || len(rows) != want {
			t.Fatalf("%T: %d rows, %v; want %d", op, len(rows), err, want)
		}
	}
	ops := map[string]func(){
		"NestedLoopJoin": func() {
			drain(&exec.NestedLoopJoin{Left: scanOf(left, "L"), Right: right, RightSch: scanOf(right, "R").Schema(), Pred: theta}, 6)
		},
		// L.k NOT IN (SELECT R.v FROM R WHERE L.k > R.k + 96): the three
		// left rows with relevant right rows all lose to a smaller R.v.
		"AntiJoin": func() {
			drain(&exec.AntiJoin{Left: scanOf(left, "L"), Right: right, RightSch: scanOf(right, "R").Schema(), Corr: theta,
				LeftVal: func(l storage.Tuple) value.Value { return l[0] }, MemberCol: 1}, 100)
		},
	}
	for name, run := range ops {
		if allocs := testing.AllocsPerRun(5, run); allocs > 100 {
			t.Errorf("%s: %.0f allocations for 10,000 pairs of which six qualify", name, allocs)
		} else {
			t.Logf("%s: %.0f allocations", name, allocs)
		}
	}
}

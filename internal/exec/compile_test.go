package exec_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/value"
)

// Compilation of OR / AND / NOT trees over simple comparisons (used when a
// canonical query keeps a disjunction conjunct).
func TestCompileDisjunctionTrees(t *testing.T) {
	s := storage.NewStore(4)
	f := loadFile(s, "R", 4, [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	scan := scanOf(f, "R")
	k := ast.ColumnRef{Table: "R", Column: "K"}
	v := ast.ColumnRef{Table: "R", Column: "V"}
	eq := func(c ast.ColumnRef, n int64) ast.Predicate {
		return &ast.Comparison{Left: c, Op: value.OpEq, Right: ast.Const{Val: intv(n)}}
	}

	or := &ast.OrPred{Left: eq(k, 1), Right: eq(v, 30)}
	pred, err := exec.CompileConjuncts([]ast.Predicate{or}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got := drainInts(t, &exec.Filter{Child: scan, Pred: pred})
	if !eqRows(got, [][]int64{{1, 10}, {3, 30}}) {
		t.Errorf("OR filter = %v", got)
	}

	not := &ast.NotPred{P: eq(k, 2)}
	pred, err = exec.CompileConjuncts([]ast.Predicate{not}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got = drainInts(t, &exec.Filter{Child: scanOf(f, "R"), Pred: pred})
	if !eqRows(got, [][]int64{{1, 10}, {3, 30}}) {
		t.Errorf("NOT filter = %v", got)
	}

	andUnderOr := &ast.OrPred{
		Left:  &ast.AndPred{Left: eq(k, 1), Right: eq(v, 10)},
		Right: eq(k, 3),
	}
	pred, err = exec.CompileConjuncts([]ast.Predicate{andUnderOr}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	got = drainInts(t, &exec.Filter{Child: scanOf(f, "R"), Pred: pred})
	if !eqRows(got, [][]int64{{1, 10}, {3, 30}}) {
		t.Errorf("AND-under-OR filter = %v", got)
	}
}

// NOT over a NULL comparison stays Unknown: the row is rejected both ways.
func TestCompileNotWithNulls(t *testing.T) {
	s := storage.NewStore(4)
	f, _ := s.Create("R", 4)
	f.Append(storage.Tuple{value.Null})
	f.Append(storage.Tuple{intv(1)})
	f.Seal()
	scan := exec.NewSeqScan(f, "R", []string{"K"})
	k := ast.ColumnRef{Table: "R", Column: "K"}
	eq1 := &ast.Comparison{Left: k, Op: value.OpEq, Right: ast.Const{Val: intv(1)}}

	pred, err := exec.CompileConjuncts([]ast.Predicate{eq1}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(&exec.Filter{Child: scan, Pred: pred}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("K = 1 rows = %d", len(rows))
	}
	notEq, err := exec.CompileConjuncts([]ast.Predicate{&ast.NotPred{P: eq1}}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rows, err = exec.Drain(&exec.Filter{Child: exec.NewSeqScan(f, "R", []string{"K"}), Pred: notEq}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 { // NOT(NULL = 1) is Unknown, NOT(1 = 1) is False
		t.Errorf("NOT rows = %d, want 0", len(rows))
	}
}

// Type errors inside a compiled predicate surface at execution time.
func TestCompiledPredicateRuntimeError(t *testing.T) {
	s := storage.NewStore(4)
	f, _ := s.Create("R", 4)
	f.Append(storage.Tuple{value.NewString("x")})
	f.Seal()
	scan := exec.NewSeqScan(f, "R", []string{"K"})
	pred, err := exec.CompileConjuncts([]ast.Predicate{&ast.Comparison{
		Left:  ast.ColumnRef{Table: "R", Column: "K"},
		Op:    value.OpLt,
		Right: ast.Const{Val: intv(1)},
	}}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec.Drain(&exec.Filter{Child: scan, Pred: pred}, nil)
	if err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Errorf("runtime type error = %v", err)
	}
}

// A cartesian nested-loops join (always-true predicate).
func TestNestedLoopJoinCartesian(t *testing.T) {
	s := storage.NewStore(4)
	l := loadFile(s, "L", 4, [][2]int64{{1, 0}, {2, 0}})
	r := loadFile(s, "R", 4, [][2]int64{{7, 0}})
	left := scanOf(l, "L")
	rightSch := exec.RowSchema{{Table: "R", Column: "K"}, {Table: "R", Column: "V"}}
	pred, err := exec.CompileConjuncts(nil, left.Schema().Concat(rightSch))
	if err != nil {
		t.Fatal(err)
	}
	j := &exec.NestedLoopJoin{Left: left, Right: r, RightSch: rightSch, Pred: pred}
	got := drainInts(t, j)
	if len(got) != 2 {
		t.Errorf("cartesian rows = %v", got)
	}
}

// Sort is reusable: Open resets all state, including after an external
// spill.
func TestSortReopen(t *testing.T) {
	s := storage.NewStore(3)
	rows := make([][2]int64, 9)
	for i := range rows {
		rows[i] = [2]int64{int64(8 - i), 0}
	}
	f := loadFile(s, "R", 1, rows)
	srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: s, TuplesPerPage: 1}
	for round := range 2 {
		got := drainInts(t, srt)
		for i := range got {
			if got[i][0] != int64(i) {
				t.Fatalf("round %d: order broken: %v", round, got)
			}
		}
	}
}

// RowSchema.Index handles qualified, unqualified, ambiguous, and missing
// references.
func TestRowSchemaIndex(t *testing.T) {
	sch := exec.RowSchema{
		{Table: "A", Column: "X"},
		{Table: "B", Column: "X"},
		{Table: "B", Column: "Y"},
	}
	if got := sch.Index(ast.ColumnRef{Table: "A", Column: "X"}); got != 0 {
		t.Errorf("A.X = %d", got)
	}
	if got := sch.Index(ast.ColumnRef{Table: "b", Column: "y"}); got != 2 {
		t.Errorf("b.y = %d (case-insensitive)", got)
	}
	if got := sch.Index(ast.ColumnRef{Column: "Y"}); got != 2 {
		t.Errorf("unqualified Y = %d", got)
	}
	if got := sch.Index(ast.ColumnRef{Column: "X"}); got != -2 {
		t.Errorf("ambiguous X = %d, want -2", got)
	}
	if got := sch.Index(ast.ColumnRef{Column: "Z"}); got != -1 {
		t.Errorf("missing Z = %d, want -1", got)
	}
}

func TestIndexScanOperator(t *testing.T) {
	s := storage.NewStore(8)
	f := loadFile(s, "R", 4, [][2]int64{{3, 0}, {1, 1}, {3, 2}, {2, 3}})
	idx := index.Build(s, f, "R", "K", 0)
	scan := &exec.IndexScan{
		Idx: idx,
		Sch: exec.RowSchema{{Table: "R", Column: "K"}, {Table: "R", Column: "V"}},
		Op:  value.OpGe,
		Key: intv(2),
	}
	got := drainInts(t, scan)
	// Key order: 2, then both 3s in stable position order.
	want := [][]int64{{2, 3}, {3, 0}, {3, 2}}
	if !eqRows(got, want) {
		t.Errorf("index scan = %v, want %v", got, want)
	}
	// Unsupported operator yields an empty scan rather than an error.
	scan = &exec.IndexScan{Idx: idx, Sch: scan.Sch, Op: value.OpNe, Key: intv(2)}
	if got := drainInts(t, scan); len(got) != 0 {
		t.Errorf("!= index scan = %v, want empty", got)
	}
}

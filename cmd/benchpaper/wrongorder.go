package main

import (
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// cutoffDate is the paper's SHIPDATE restriction constant.
func cutoffDate() value.Date {
	d, err := value.ParseDate("1-1-80")
	if err != nil {
		panic(err)
	}
	return d
}

// restrictionAfterOuterJoin builds — directly from physical operators —
// the incorrect evaluation order section 5.2 warns against: outer-join the
// projection of PARTS with the *unrestricted* SUPPLY, and only then apply
// SHIPDATE < 1-1-80. The filter's three-valued logic drops the NULL-padded
// rows of unmatched groups, so the group for part 8 (COUNT = 0) vanishes
// from the temp table. Returns the wrong TEMP3 contents.
func restrictionAfterOuterJoin(db *engine.DB) []storage.Tuple {
	store := db.Store()
	parts, _ := store.Lookup("PARTS")
	supply, _ := store.Lookup("SUPPLY")

	// DTEMP = SELECT DISTINCT PNUM FROM PARTS, in sorted order.
	proj := exec.NewProject(
		exec.NewSeqScan(parts, "PARTS", []string{"PNUM", "QOH"}),
		[]int{0}, []exec.ColID{{Table: "DTEMP", Column: "PNUM"}})
	distinct := &exec.Distinct{Child: &exec.Sort{Child: proj, Keys: []int{0}, Store: store}}
	dtemp, err := exec.Materialize(distinct, store, 0)
	if err != nil {
		panic(err)
	}
	defer store.Drop(dtemp.Name())

	// Outer join DTEMP with the unrestricted SUPPLY.
	left := exec.NewSeqScan(dtemp, "DTEMP", []string{"PNUM"})
	rightSch := exec.RowSchema{
		{Table: "SUPPLY", Column: "PNUM"},
		{Table: "SUPPLY", Column: "QUAN"},
		{Table: "SUPPLY", Column: "SHIPDATE"},
	}
	pred, err := exec.CompileConjuncts([]ast.Predicate{&ast.Comparison{
		Left:  ast.ColumnRef{Table: "DTEMP", Column: "PNUM"},
		Op:    value.OpEq,
		Right: ast.ColumnRef{Table: "SUPPLY", Column: "PNUM"},
	}}, left.Schema().Concat(rightSch))
	if err != nil {
		panic(err)
	}
	join := &exec.NestedLoopJoin{Left: left, Right: supply, RightSch: rightSch, Pred: pred, Outer: true}

	// The mistake: restrict AFTER the join. SHIPDATE < 1-1-80 is Unknown
	// for the padded rows, which are therefore dropped.
	cutoff, err := exec.CompileConjuncts([]ast.Predicate{&ast.Comparison{
		Left:  ast.ColumnRef{Table: "SUPPLY", Column: "SHIPDATE"},
		Op:    value.OpLt,
		Right: ast.Const{Val: value.NewDateValue(cutoffDate())},
	}}, join.Schema())
	if err != nil {
		panic(err)
	}
	filtered := &exec.Filter{Child: join, Pred: cutoff}

	group := &exec.GroupAgg{
		Child:     filtered, // nested loops preserved DTEMP's order
		GroupCols: []int{0},
		Items: []exec.GroupItem{
			{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "PNUM"}},
			{Agg: value.AggCount, Col: 3, Out: exec.ColID{Column: "CT"}},
		},
	}
	rows, err := exec.Drain(group, nil)
	if err != nil {
		panic(err)
	}
	return rows
}

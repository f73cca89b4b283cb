package main

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/workload"
)

// newDB loads a fixture into a fresh engine database.
func newDB(bufferPages int, load func(*workload.DB) error) *engine.DB {
	db := engine.New(bufferPages)
	if err := load(&workload.DB{Cat: db.Catalog(), Store: db.Store()}); err != nil {
		panic(err)
	}
	return db
}

// parallelWorkers configures how the experiments execute:
// TestGoldenParallelSemantics sets it to re-run the semantic experiments
// on the hash operators Parallelism places and compares the output against
// the sequential run. Zero keeps everything sequential, matching
// experiments.golden byte for byte.
var parallelWorkers int

// runStrategy executes sql under a strategy, on the plan the paper costs
// (AsPaper), and returns the result.
func runStrategy(db *engine.DB, sql string, s engine.Strategy) *engine.Result {
	opts := engine.Options{Strategy: s}
	opts.Planner.AsPaper = true
	opts.Planner.Parallelism = parallelWorkers
	res, err := db.Query(sql, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// printRows renders a result like the paper prints tables.
func printRows(header string, rows []storage.Tuple) {
	fmt.Printf("  %s\n", header)
	if len(rows) == 0 {
		fmt.Println("    (empty)")
		return
	}
	for _, r := range rows {
		fmt.Printf("    %s\n", r)
	}
}

// printTable prints a base table's contents.
func printTable(db *engine.DB, name string) {
	rel, _ := db.Catalog().Lookup(name)
	f, ok := db.Store().Lookup(name)
	printFile(name, rel, f, ok)
}

// printTemp prints a temporary table the planner kept.
func printTemp(pl *planner.Planner, name string) {
	rel, f, ok := pl.Temp(name)
	printFile(name, rel, f, ok)
}

func printFile(name string, rel *schema.Relation, f *storage.HeapFile, ok bool) {
	if !ok {
		fmt.Printf("  %s: (missing)\n", name)
		return
	}
	var rows []storage.Tuple
	f.Scan(func(t storage.Tuple) bool {
		rows = append(rows, t)
		return true
	})
	printRows(fmt.Sprintf("%s(%s):", name, strings.Join(rel.ColumnNames(), ", ")), rows)
}

// runPlanner runs the transformation and the planner on the plan the
// paper costs and returns the rows, the transformation and the planner,
// whose Trace holds the plan. Under keepTemps, printTemp reads the temps
// until the caller calls the planner's DropTemps.
func runPlanner(db *engine.DB, sql string, variant transform.Variant, keepTemps bool) ([]storage.Tuple, *transform.Result, *planner.Planner) {
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		panic(err)
	}
	if _, err := schema.Resolve(db.Catalog(), qb); err != nil {
		panic(err)
	}
	tr, err := transform.New(db.Catalog(), variant).AsPaper(true).Transform(qb)
	if err != nil {
		panic(err)
	}
	pl := planner.New(db.Catalog(), db.Store(), planner.Options{
		KeepTemps:   keepTemps,
		AsPaper:     true,
		Parallelism: parallelWorkers,
	})
	rows, _, err := pl.Run(tr)
	if err != nil {
		panic(err)
	}
	return rows, tr, pl
}

// expCountBug reproduces section 5.1: Kiessling's query Q2 on his
// PARTS/SUPPLY instance under nested iteration (the correct {10, 8}) and
// under Kim's NEST-JA (the buggy {10}).
func expCountBug() {
	db := newDB(8, workload.LoadKiessling)
	printTable(db, "PARTS")
	printTable(db, "SUPPLY")
	fmt.Println("\n  Query Q2 [KIE 84:4]:", oneLine(workload.KiesslingQ2))

	ni := runStrategy(db, workload.KiesslingQ2, engine.NestedIteration)
	printRows("Nested iteration (correct) — paper: {10, 8}:", ni.Rows)

	rows, tr, pl := runPlanner(db, workload.KiesslingQ2, transform.KimJA, true)
	fmt.Println("\n  Kim's NEST-JA transformation:")
	for _, t := range tr.Temps {
		fmt.Printf("    %s = %s\n", t.Name, t.Def)
	}
	fmt.Printf("    final: %s\n", tr.Query)
	printTemp(pl, tr.Temps[0].Name)
	pl.DropTemps()
	printRows("Kim NEST-JA result — paper: COUNT never returns zero, part 8 lost:", rows)
}

// expCountFix reproduces section 5.2: the outer-join construction of the
// temporary table restores {10, 8}, with TEMP2/TEMP3 printed as the paper
// shows them.
func expCountFix() {
	db := newDB(8, workload.LoadKiessling)
	rows, tr, pl := runPlanner(db, workload.KiesslingQ2, transform.JA2, true)
	fmt.Println("  NEST-JA2 transformation steps:")
	for _, t := range tr.Temps {
		fmt.Printf("    %s = %s\n", t.Name, t.Def)
	}
	fmt.Printf("    final: %s\n", tr.Query)
	fmt.Println()
	for _, t := range tr.Temps {
		printTemp(pl, t.Name)
	}
	pl.DropTemps()
	printRows("Result — paper: {10, 8}, matching nested iteration:", rows)
}

// expCountStar reproduces section 5.2.1: COUNT(*) must become COUNT over
// the inner join column after the outer join.
func expCountStar() {
	db := newDB(8, workload.LoadKiessling)
	fmt.Println("  Query Q2 with COUNT(*):", oneLine(workload.KiesslingQ2CountStar))
	rows, tr, pl := runPlanner(db, workload.KiesslingQ2CountStar, transform.JA2, true)
	temp3 := tr.Temps[len(tr.Temps)-1]
	fmt.Printf("  COUNT(*) converted in %s: %s\n", temp3.Name, temp3.Def)
	printTemp(pl, temp3.Name)
	pl.DropTemps()
	printRows("Result — COUNT(*) handled correctly: {10, 8}:", rows)

	ni := runStrategy(db, workload.KiesslingQ2CountStar, engine.NestedIteration)
	printRows("Nested iteration agrees:", ni.Rows)
}

// expNonEq reproduces section 5.3: query Q5 with the "<" operator. Kim's
// algorithm aggregates per inner join-column value and answers {10, 8};
// the fix aggregates over the range each outer tuple sees and answers {8}.
func expNonEq() {
	db := newDB(8, workload.LoadNonEquality)
	printTable(db, "PARTS")
	printTable(db, "SUPPLY")
	fmt.Println("\n  Query Q5 (section 5.3):", oneLine(workload.GanskiQ5))

	ni := runStrategy(db, workload.GanskiQ5, engine.NestedIteration)
	printRows("Nested iteration (correct, MAX({}) = NULL) — paper: {8}:", ni.Rows)

	rowsKim, trKim, plKim := runPlanner(db, workload.GanskiQ5, transform.KimJA, true)
	fmt.Printf("\n  Kim temp (TEMP5 in the paper): %s\n", trKim.Temps[0].Def)
	printTemp(plKim, trKim.Temps[0].Name)
	plKim.DropTemps()
	printRows("Kim NEST-JA result — paper: {10, 8} (wrong):", rowsKim)

	rowsJA2, trJA2, plJA2 := runPlanner(db, workload.GanskiQ5, transform.JA2, true)
	fmt.Printf("\n  NEST-JA2 temp (TEMP6 in the paper): %s\n", trJA2.Temps[1].Def)
	printTemp(plJA2, trJA2.Temps[1].Name)
	plJA2.DropTemps()
	printRows("NEST-JA2 result — paper: {8}:", rowsJA2)
}

// expDuplicates reproduces section 5.4: with duplicate outer join-column
// values, the outer-join fix alone over-counts; the DISTINCT projection of
// the outer join column (TEMP1) restores {3, 10, 8}. The naive variant is
// built explicitly as the ablation the paper walks through.
func expDuplicates() {
	db := newDB(8, workload.LoadDuplicates)
	printTable(db, "PARTS")
	printTable(db, "SUPPLY")
	fmt.Println("\n  Query Q2 over the duplicate-laden PARTS (section 5.4)")

	ni := runStrategy(db, workload.KiesslingQ2, engine.NestedIteration)
	printRows("Nested iteration — paper: {3, 10, 8}:", ni.Rows)

	naive := naiveOuterJoinRows(db)
	printRows("Outer-join fix WITHOUT the DISTINCT projection — paper: {8} (wrong):", naive)

	rows, tr, pl := runPlanner(db, workload.KiesslingQ2, transform.JA2, true)
	for _, t := range tr.Temps {
		printTemp(pl, t.Name)
	}
	pl.DropTemps()
	printRows("Full NEST-JA2 (with TEMP1 projection) — paper: {3, 10, 8}:", rows)
}

// expJA2Example reproduces section 6.1: the three steps of algorithm
// NEST-JA2 applied to query Q2 on the duplicates instance, printing TEMP1
// and TEMP3 as the paper does.
func expJA2Example() {
	db := newDB(8, workload.LoadDuplicates)
	rows, tr, pl := runPlanner(db, workload.KiesslingQ2, transform.JA2, true)
	fmt.Println("  Algorithm NEST-JA2, the three steps of section 6.1:")
	for i, t := range tr.Temps {
		fmt.Printf("    step %d: %s = %s\n", i+1, t.Name, t.Def)
	}
	fmt.Printf("    step 3 (rewritten query): %s\n\n", tr.Query)
	printTemp(pl, tr.Temps[0].Name) // TEMP1 — paper: {3, 10, 8}
	printTemp(pl, tr.Temps[2].Name) // TEMP3 — paper: {(3,2), (10,1), (8,0)}
	pl.DropTemps()
	printRows("Final result — paper: {3, 10, 8}:", rows)
}

func oneLine(sql string) string {
	return strings.Join(strings.Fields(sql), " ")
}

package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/value"
	"repro/internal/workload"
)

// manualTemp is a hand-written temporary-table program step, used to build
// the deliberately-broken pipelines the paper walks through (applying a
// fix partially to show why each ingredient is needed).
type manualTemp struct {
	name string
	cols []schema.Column
	sql  string
}

// runManualPipeline resolves and executes a hand-written temp program plus
// final query through the planner, on the plan the paper costs (AsPaper).
func runManualPipeline(db *engine.DB, temps []manualTemp, finalSQL string, opts planner.Options) []storage.Tuple {
	opts.AsPaper = true
	res := &transform.Result{}
	var defined []string
	for _, mt := range temps {
		qb := sqlparser.MustParse(mt.sql)
		if _, err := schema.Resolve(db.Catalog(), qb); err != nil {
			panic(fmt.Sprintf("%s: %v", mt.name, err))
		}
		rel := &schema.Relation{Name: mt.name, Columns: mt.cols}
		res.Temps = append(res.Temps, transform.TempTable{Name: mt.name, Rel: rel, Def: qb})
		// Define only to resolve the later steps: the planner resolves the
		// temps it materializes itself, never through the catalog.
		if err := db.Catalog().Define(rel); err != nil {
			panic(err)
		}
		defined = append(defined, mt.name)
	}
	final := sqlparser.MustParse(finalSQL)
	if _, err := schema.Resolve(db.Catalog(), final); err != nil {
		panic(err)
	}
	res.Query = final
	for _, name := range defined {
		db.Catalog().Drop(name)
	}
	rows, _, err := planner.New(db.Catalog(), db.Store(), opts).Run(res)
	if err != nil {
		panic(err)
	}
	return rows
}

// naiveOuterJoinRows is ablation A2 / the section 5.4 counterexample: the
// outer-join COUNT fix applied against the raw outer relation instead of
// its DISTINCT projection. Duplicate PARTS.PNUM values inflate the COUNT.
func naiveOuterJoinRows(db *engine.DB) []storage.Tuple {
	intCol := func(n string) schema.Column { return schema.Column{Name: n, Type: value.KindInt} }
	return runManualPipeline(db,
		[]manualTemp{
			{"NTEMP2", []schema.Column{intCol("PNUM"), {Name: "SHIPDATE", Type: value.KindDate}},
				"SELECT PNUM, SHIPDATE FROM SUPPLY WHERE SHIPDATE < 1-1-80"},
			{"NTEMP3", []schema.Column{intCol("PNUM"), intCol("CT")},
				`SELECT PARTS.PNUM, COUNT(NTEMP2.SHIPDATE) AS CT
				 FROM PARTS, NTEMP2
				 WHERE PARTS.PNUM =+ NTEMP2.PNUM
				 GROUP BY PARTS.PNUM`},
		},
		`SELECT PARTS.PNUM FROM PARTS, NTEMP3
		 WHERE PARTS.QOH = NTEMP3.CT AND PARTS.PNUM = NTEMP3.PNUM`,
		planner.Options{})
}

// expAblations isolates each ingredient of NEST-JA2 (DESIGN.md A1-A4).
func expAblations() {
	// ---- A1: inner join vs outer join in the temp table (the COUNT fix).
	fmt.Println("  A1 — outer join vs inner join in temp creation (Kiessling instance):")
	{
		db := newDB(8, workload.LoadKiessling)
		intCol := func(n string) schema.Column { return schema.Column{Name: n, Type: value.KindInt} }
		temps := []manualTemp{
			{"DTEMP", []schema.Column{intCol("PNUM")},
				"SELECT DISTINCT PNUM FROM PARTS"},
			{"ATEMP2", []schema.Column{intCol("PNUM"), {Name: "SHIPDATE", Type: value.KindDate}},
				"SELECT PNUM, SHIPDATE FROM SUPPLY WHERE SHIPDATE < 1-1-80"},
		}
		innerJoin := append(temps, manualTemp{
			"ATEMP3", []schema.Column{intCol("PNUM"), intCol("CT")},
			`SELECT DTEMP.PNUM, COUNT(ATEMP2.SHIPDATE) AS CT
			 FROM DTEMP, ATEMP2
			 WHERE DTEMP.PNUM = ATEMP2.PNUM
			 GROUP BY DTEMP.PNUM`})
		rows := runManualPipeline(db,
			innerJoin,
			`SELECT PARTS.PNUM FROM PARTS, ATEMP3
			 WHERE PARTS.QOH = ATEMP3.CT AND PARTS.PNUM = ATEMP3.PNUM`,
			planner.Options{})
		printRows("inner join (no =+): COUNT can never be 0, part 8 lost:", rows)
	}
	{
		db := newDB(8, workload.LoadKiessling)
		ja2 := runStrategy(db, workload.KiesslingQ2, engine.TransformJA2)
		printRows("outer join (NEST-JA2): correct {10, 8}:", ja2.Rows)
	}

	// ---- A2: with vs without the DISTINCT projection of the outer join
	// column, on the duplicates instance.
	fmt.Println("\n  A2 — DISTINCT projection of the outer join column (duplicates instance):")
	{
		db := newDB(8, workload.LoadDuplicates)
		naive := naiveOuterJoinRows(db)
		printRows("without projection: duplicates inflate COUNT, only {8} survives:", naive)
		ja2 := runStrategy(db, workload.KiesslingQ2, engine.TransformJA2)
		printRows("with projection (NEST-JA2): correct {3, 10, 8}:", ja2.Rows)
	}

	// ---- A3: restriction before vs after the outer join (section 5.2's
	// correctness note: "the condition which applies to only one relation
	// must be applied before the join is performed"). The planner always
	// restricts first, so the wrong order is built directly from physical
	// operators here.
	fmt.Println("\n  A3 — restricting the inner relation before vs after the outer join:")
	{
		db := newDB(8, workload.LoadKiessling)
		wrong := restrictionAfterOuterJoin(db)
		printRows("TEMP3 with restriction applied AFTER the outer join (group 8 lost):", wrong)
		_, tr, pl := runPlanner(db, workload.KiesslingQ2, transform.JA2, true)
		printTemp(pl, tr.Temps[2].Name)
		pl.DropTemps()
		fmt.Println("    (NEST-JA2 restricts into TEMP2 first; group 8 keeps COUNT = 0)")
	}

	// ---- A5 (beyond the paper, found by differential fuzzing): merging an
	// IN predicate inside a COUNT block changes the aggregate through join
	// multiplicity; the transformer refuses the merge unless the merged
	// column is a declared key.
	fmt.Println("\n  A5 — multiplicity guard for IN under COUNT/SUM/AVG (fuzzer-found):")
	{
		db := engine.New(8)
		if _, err := db.Exec(`
			CREATE TABLE RA (K INT, V INT);
			CREATE TABLE RC (K INT, V INT);
			INSERT INTO RA VALUES (4, 3);
			INSERT INTO RC VALUES (1, 2), (0, 2), (1, 2);
		`, engine.Options{}); err != nil {
			panic(err)
		}
		sql := `SELECT K, V FROM RA
		        WHERE V > (SELECT COUNT(*) FROM RC T2
		                   WHERE T2.K = 1 AND T2.V IN (SELECT T3.V FROM RC T3 WHERE T3.K < 2))`
		ni := runStrategy(db, sql, engine.NestedIteration)
		tr := runStrategy(db, sql, engine.TransformJA2)
		printRows("nested iteration (COUNT counts 2 rows; 3 > 2 qualifies):", ni.Rows)
		fmt.Printf("  transformation falls back rather than merge (fellback=%v):\n", tr.FellBack)
		printRows("  result (must agree):", tr.Rows)
		fmt.Println("    (a naive NEST-N-J merge would join-duplicate the counted rows,")
		fmt.Println("     COUNT would become 6, and the row would vanish)")
	}

	// ---- A4: the four join-method combinations of section 7.4, measured.
	fmt.Println("\n  A4 — join method combinations (measured page I/Os, synthetic workload):")
	cfg := workload.DefaultSynthetic()
	methods := []planner.JoinMethod{planner.JoinMerge, planner.JoinNL}
	for _, temp := range methods {
		for _, final := range methods {
			db := engine.New(8)
			if err := workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg); err != nil {
				panic(err)
			}
			res, err := db.Query(workload.TypeJAQuery(cfg), engine.Options{
				Strategy: engine.TransformJA2,
				Planner:  planner.Options{TempJoin: temp, FinalJoin: final, AsPaper: true},
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf("    temp=%-12s final=%-12s  %v (%d rows)\n",
				temp, final, res.Stats, len(res.Rows))
		}
	}
}

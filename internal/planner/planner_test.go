package planner_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/value"
	"repro/internal/workload"
)

// runPlanned transforms a query and executes it through the planner.
func runPlanned(t *testing.T, db *workload.DB, sql string, variant transform.Variant, opts planner.Options) ([]storage.Tuple, *planner.Planner) {
	t.Helper()
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	res, err := transform.New(db.Cat, variant).Transform(qb)
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(db.Cat, db.Store, opts)
	rows, _, err := pl.Run(res)
	if err != nil {
		t.Fatalf("plan/run: %v\nnotes: %v", err, pl.Notes())
	}
	return rows, pl
}

func rowStrs(rows []storage.Tuple) string {
	return strings.Join(storage.Canon(storage.AgreeBag, rows), " ")
}

func kiessling(t *testing.T, b int) *workload.DB {
	t.Helper()
	db := workload.NewDB(b)
	if err := workload.LoadKiessling(db); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPlannerQ2AllJoinCombinations(t *testing.T) {
	methods := []planner.JoinMethod{planner.JoinAuto, planner.JoinMerge, planner.JoinNL}
	for _, temp := range methods {
		for _, final := range methods {
			db := kiessling(t, 8)
			rows, _ := runPlanned(t, db, workload.KiesslingQ2, transform.JA2,
				planner.Options{TempJoin: temp, FinalJoin: final})
			if got := rowStrs(rows); got != "(10) (8)" {
				t.Errorf("temp=%v final=%v rows = %v", temp, final, got)
			}
		}
	}
}

// The section 7.4 sort eliminations: with merge joins forced, TEMP1 is
// created in join-column order (DISTINCT sort), the outer-join result is
// in GROUP BY order, and the grouped temp table needs no sort before the
// final merge join.
func TestPlannerSortElisions(t *testing.T) {
	db := kiessling(t, 8)
	_, pl := runPlanned(t, db, workload.KiesslingQ2, transform.JA2,
		planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge})
	notes := strings.Join(pl.Notes(), "\n")
	for _, frag := range []string{
		"duplicates removed by sort",                   // TEMP1 projection
		"left input already in join-column order",      // TEMP3: TEMP1 pre-sorted
		"input already in GROUP BY order, sort elided", // TEMP3: merge-join output order
		"right input already in join-column order",     // final: TEMP3 in join order
	} {
		if !strings.Contains(notes, frag) {
			t.Errorf("notes missing %q:\n%s", frag, notes)
		}
	}
}

// The non-equality temp join cannot use a merge join; a forced merge
// falls back to nested loops with a note.
func TestPlannerThetaJoinFallsBackToNL(t *testing.T) {
	db := workload.NewDB(8)
	if err := workload.LoadNonEquality(db); err != nil {
		t.Fatal(err)
	}
	rows, pl := runPlanned(t, db, workload.GanskiQ5, transform.JA2,
		planner.Options{TempJoin: planner.JoinMerge})
	if got := rowStrs(rows); got != "(8)" {
		t.Errorf("rows = %v", got)
	}
	if !strings.Contains(strings.Join(pl.Notes(), "\n"), "merge join not applicable") {
		t.Errorf("expected fallback note, got %v", pl.Notes())
	}
}

// Cost-based choice: a large right side favors merge join; a small one
// that fits in the buffer pool favors nested loops, whose slot an equality
// join fills with the inline hash join — no exchange, no goroutine.
func TestPlannerAutoChoice(t *testing.T) {
	mk := func(innerTuples, b int) string {
		db := workload.NewDB(b)
		cols := []schema.Column{{Name: "JC", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}
		outer := make([]storage.Tuple, 60)
		for k := range outer {
			outer[k] = storage.Tuple{value.NewInt(int64(k % 10)), value.NewInt(int64(k % 3))}
		}
		inner := make([]storage.Tuple, innerTuples)
		for k := range inner {
			inner[k] = storage.Tuple{value.NewInt(int64(k % 10)), value.NewInt(int64(k % 3))}
		}
		if err := db.Load(&schema.Relation{Name: "RI", Columns: cols}, 2, outer); err != nil {
			t.Fatal(err)
		}
		if err := db.Load(&schema.Relation{Name: "RJ", Columns: cols}, 2, inner); err != nil {
			t.Fatal(err)
		}
		_, pl := runPlanned(t, db,
			"SELECT JC FROM RI WHERE V = (SELECT COUNT(V) FROM RJ WHERE RJ.JC = RI.JC)",
			transform.JA2, planner.Options{})
		return strings.Join(pl.Notes(), "\n")
	}
	// Large inner, small pool: merge join chosen somewhere.
	if notes := mk(400, 4); !strings.Contains(notes, "merge join") {
		t.Errorf("large inner should use merge join:\n%s", notes)
	}
	// Tiny inner, large pool: nested loops is cheaper for the temp join.
	before := runtime.NumGoroutine()
	notes := mk(4, 64)
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("a sequential plan left %d goroutine(s) behind", after-before)
	}
	for _, frag := range []string{"TEMP3: outer hash join TEMP1.JC with TEMP2.JC", "OuterHashJoin(left#0 = right#0, out=[0 2])",
		"final: hash join RI.JC with TEMP3.JC and RI.V with TEMP3.CT", "HashJoin(left#0 <=> right#0, left#1 = right#1, out=[0])",
		"TEMP3: input already in GROUP BY order, sort elided"} {
		if !strings.Contains(notes, frag) {
			t.Errorf("small inner should use the inline hash join; notes missing %q:\n%s", frag, notes)
		}
	}
	for _, frag := range []string{"nested-loops", "ExchangeMerge", "Parallel", "workers"} {
		if strings.Contains(notes, frag) {
			t.Errorf("small inner: notes mention %q:\n%s", frag, notes)
		}
	}
}

// Type-A constants are folded before planning.
func TestPlannerFoldsTypeAConstants(t *testing.T) {
	db := workload.NewDB(8)
	if err := workload.LoadSuppliers(db); err != nil {
		t.Fatal(err)
	}
	rows, pl := runPlanned(t, db,
		"SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)",
		transform.JA2, planner.Options{})
	if got := rowStrs(rows); got != "('S1')" {
		t.Errorf("rows = %v", got)
	}
	if !strings.Contains(strings.Join(pl.Notes(), "\n"), "constant 'P6'") {
		t.Errorf("notes = %v", pl.Notes())
	}
}

// Temporary tables are dropped from both catalog and store after Run.
func TestPlannerCleanup(t *testing.T) {
	db := kiessling(t, 8)
	runPlanned(t, db, workload.KiesslingQ2, transform.JA2, planner.Options{})
	for _, name := range db.Cat.Names() {
		if strings.HasPrefix(name, "TEMP") {
			t.Errorf("catalog leaked %s", name)
		}
	}
	if _, ok := db.Store.Lookup("TEMP1"); ok {
		t.Error("store leaked TEMP1")
	}
}

// Forced methods still agree with nested-iteration ground truth on the
// duplicates fixture (exercises outer merge join and outer NL join with
// duplicate join values).
func TestPlannerDuplicatesAllMethods(t *testing.T) {
	for _, temp := range []planner.JoinMethod{planner.JoinMerge, planner.JoinNL} {
		db := workload.NewDB(8)
		if err := workload.LoadDuplicates(db); err != nil {
			t.Fatal(err)
		}
		rows, _ := runPlanned(t, db, workload.KiesslingQ2, transform.JA2,
			planner.Options{TempJoin: temp})
		if got := rowStrs(rows); got != "(10) (3) (8)" {
			t.Errorf("temp=%v rows = %v", temp, got)
		}
	}
}

// TempTuplesPerPage shapes materialized temp sizes.
func TestPlannerTempPageSize(t *testing.T) {
	db := kiessling(t, 8)
	_, pl := runPlanned(t, db, workload.KiesslingQ2, transform.JA2,
		planner.Options{TempTuplesPerPage: 1})
	notes := strings.Join(pl.Notes(), "\n")
	if !strings.Contains(notes, "TEMP1 materialized: 3 tuples, 3 pages") {
		t.Errorf("TEMP1 sizing wrong:\n%s", notes)
	}
}

func TestJoinMethodString(t *testing.T) {
	if planner.JoinAuto.String() != "auto" ||
		planner.JoinMerge.String() != "merge" ||
		planner.JoinNL.String() != "nested-loops" {
		t.Error("join method names")
	}
}

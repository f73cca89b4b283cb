package planner_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/index"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/value"
	"repro/internal/workload"
)

// manualResult builds a transform.Result from raw SQL (resolved against
// the catalog) for driving error paths.
func manualResult(t *testing.T, db *workload.DB, finalSQL string) *transform.Result {
	t.Helper()
	qb := sqlparser.MustParse(finalSQL)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	return &transform.Result{Query: qb}
}

func TestPlannerErrorPaths(t *testing.T) {
	db := kiessling(t, 8)

	// Residual correlated subquery (planner must refuse; the transformer
	// normally prevents this).
	qb := sqlparser.MustParse(`
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	pl := planner.New(db.Cat, db.Store, planner.Options{})
	if _, _, err := pl.Run(&transform.Result{Query: qb}); err == nil ||
		!strings.Contains(err.Error(), "correlated") {
		t.Errorf("residual correlation: %v", err)
	}

	// Constant subquery returning several rows.
	res := manualResult(t, db, `
		SELECT PNUM FROM PARTS WHERE QOH = (SELECT QUAN FROM SUPPLY)`)
	pl = planner.New(db.Cat, db.Store, planner.Options{})
	if _, _, err := pl.Run(res); err == nil || !strings.Contains(err.Error(), "returned") {
		t.Errorf("multi-row constant: %v", err)
	}

	// Unknown relation in a temp definition.
	badTemp := &transform.Result{
		Temps: []transform.TempTable{{
			Name: "TBAD",
			Rel:  &schema.Relation{Name: "TBAD", Columns: []schema.Column{{Name: "X", Type: value.KindInt}}},
			Def: &ast.QueryBlock{
				Select: []ast.SelectItem{{Col: ast.ColumnRef{Table: "NOPE", Column: "X"}}},
				From:   []ast.TableRef{{Relation: "NOPE"}},
			},
		}},
		Query: manualResult(t, db, "SELECT PNUM FROM PARTS").Query,
	}
	pl = planner.New(db.Cat, db.Store, planner.Options{})
	if _, _, err := pl.Run(badTemp); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Errorf("bad temp: %v", err)
	}
	// The failed run must not leak the temp it registered before failing.
	if _, ok := db.Cat.Lookup("TBAD"); ok {
		t.Error("failed run leaked temp catalog entry")
	}
}

// Constant NULL from an empty uncorrelated subquery: comparison is
// Unknown, result empty, no error.
func TestPlannerConstantNullSubquery(t *testing.T) {
	db := kiessling(t, 8)
	res := manualResult(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE QUAN > 1000)`)
	pl := planner.New(db.Cat, db.Store, planner.Options{})
	rows, _, err := pl.Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %v", rows)
	}
}

// Stats-driven planning exercises the selectivity and join-cardinality
// estimation paths.
func TestPlannerWithStatsEstimates(t *testing.T) {
	db := kiessling(t, 8)
	st := stats.New()
	if err := st.Analyze(db.Cat, db.Store); err != nil {
		t.Fatal(err)
	}
	rows, pl := runPlanned(t, db, workload.KiesslingQ2, transform.JA2,
		planner.Options{Stats: st})
	if got := rowStrs(rows); got != "(10) (8)" {
		t.Errorf("rows = %v", got)
	}
	if len(pl.Trace) == 0 {
		t.Error("no plan notes")
	}
}

// A cartesian product in the final query (no join predicate at all).
func TestPlannerCartesianProduct(t *testing.T) {
	db := kiessling(t, 8)
	res := manualResult(t, db, "SELECT QOH, QUAN FROM PARTS, SUPPLY WHERE QOH = 99")
	pl := planner.New(db.Cat, db.Store, planner.Options{})
	rows, _, err := pl.Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d", len(rows))
	}
	if !slices.ContainsFunc(pl.Trace, func(e trace.Event) bool { return e.Kind == trace.NestedLoops && len(e.Detail.Preds) == 0 }) {
		t.Errorf("notes:\n%s", notesText(pl.Trace))
	}
}

// Planner-level anti-join: correlated NOT IN with NULLs on both sides,
// keyed on the correlation in each of its forms — hashed by default and in
// the plan the paper costs, sort-merged under a forced merge join, by
// nested loops under a forced nested-loops join.
func TestPlannerAntiJoin(t *testing.T) {
	db := workload.NewDB(8)
	cols := []schema.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "V", Type: value.KindInt},
	}
	if err := db.Load(&schema.Relation{Name: "L", Columns: cols}, 2, []storage.Tuple{
		{value.NewInt(1), value.NewInt(5)},
		{value.NewInt(2), value.NewInt(6)},
		{value.NewInt(3), value.Null},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(&schema.Relation{Name: "R", Columns: cols}, 2, []storage.Tuple{
		{value.NewInt(1), value.NewInt(5)}, // matches L(1,5)
		{value.NewInt(2), value.Null},      // NULL member poisons L(2,6)
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts planner.Options
		form trace.Kind
	}{
		{planner.Options{}, trace.HashJoin},
		{planner.Options{FinalJoin: planner.JoinMerge}, trace.MergeJoin},
		{planner.Options{AsPaper: true}, trace.HashJoin},
		{planner.Options{FinalJoin: planner.JoinNL}, trace.NestedLoops},
	} {
		// Correlated NOT IN: V NOT IN (SELECT V FROM R WHERE R.K = L.K).
		rows, pl := runPlanned(t, db, `
			SELECT K FROM L
			WHERE V NOT IN (SELECT R.V FROM R WHERE R.K = L.K)`,
			transform.JA2, c.opts)
		// L(1,5): relevant {5} -> matched -> out. L(2,6): relevant {NULL} ->
		// unknown -> out. L(3,NULL): relevant set empty -> TRUE -> in.
		if got := rowStrs(rows); got != "(3)" {
			t.Errorf("%+v: anti-join rows = %v, want (3)", c.opts, got)
		}
		if !slices.ContainsFunc(pl.Trace, func(e trace.Event) bool { return note(c.form, "final")(e) && e.Text == "NOT IN" }) {
			t.Errorf("%+v: no %v deciding NOT IN in the notes:\n%s", c.opts, c.form, notesText(pl.Trace))
		}
	}
}

// Planner-level index access path and ORDER BY.
func TestPlannerIndexAndOrderBy(t *testing.T) {
	db := workload.NewDB(8)
	cols := []schema.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "V", Type: value.KindInt},
	}
	rows := make([]storage.Tuple, 300)
	for i := range rows {
		rows[i] = storage.Tuple{value.NewInt(int64(i % 50)), value.NewInt(int64(i))}
	}
	if err := db.Load(&schema.Relation{Name: "BIG", Columns: cols}, 5, rows); err != nil {
		t.Fatal(err)
	}
	f, _ := db.Store.Lookup("BIG")
	reg := index.NewRegistry()
	rel, _ := db.Cat.Lookup("BIG")
	if err := reg.Add(index.Build(db.Store, f, rel.Name, "K", 0)); err != nil {
		t.Fatal(err)
	}
	got, pl := runPlanned(t, db,
		"SELECT K, V FROM BIG WHERE K = 7 ORDER BY V DESC",
		transform.JA2, planner.Options{Indexes: reg})
	if len(got) != 6 {
		t.Fatalf("rows = %d, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][1].Int() < got[i][1].Int() {
			t.Fatalf("not descending: %v", got)
		}
	}
	if !slices.ContainsFunc(pl.Trace, note(trace.IndexScan, "final")) || !slices.ContainsFunc(pl.Trace, note(trace.OrderBy, "final")) {
		t.Errorf("notes:\n%s", notesText(pl.Trace))
	}
}

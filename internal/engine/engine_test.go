package engine_test

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workload"
)

// newDB builds an engine DB and loads a workload fixture into it.
func newDB(t *testing.T, bufferPages int, load func(*workload.DB) error) *engine.DB {
	t.Helper()
	db := engine.New(bufferPages)
	if err := load(&workload.DB{Cat: db.Catalog(), Store: db.Store()}); err != nil {
		t.Fatal(err)
	}
	return db
}

func query(t *testing.T, db *engine.DB, sql string, opts engine.Options) *engine.Result {
	t.Helper()
	res, err := db.Query(sql, opts)
	if err != nil {
		t.Fatalf("Query(%v): %v", opts.Strategy, err)
	}
	return res
}

func wantRows(t *testing.T, res *engine.Result, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := sortedRows(res); got != strings.Join(want, " ") {
		t.Errorf("%v rows = %v, want %v", res.Strategy, got, want)
	}
}

// ---- Experiment E2/E3 (sections 5.1, 5.2): the COUNT bug and its fix ----

// Nested iteration and NEST-JA2 both yield {10, 8} on Kiessling's Q2;
// Kim's NEST-JA loses part 8 (QOH = 0, no qualifying shipments) and
// returns only {10}.
func TestCountBugReproduced(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	ni := query(t, db, workload.KiesslingQ2, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(10)", "(8)")

	ja2 := query(t, db, workload.KiesslingQ2, engine.Options{Strategy: engine.TransformJA2})
	wantRows(t, ja2, "(10)", "(8)")
	if ja2.FellBack {
		t.Error("JA2 must not fall back on Q2")
	}

	kim := query(t, db, workload.KiesslingQ2, engine.Options{Strategy: engine.TransformKim})
	wantRows(t, kim, "(10)") // the COUNT bug: part 8 is lost
}

// ---- Experiment E4 (section 5.2.1): COUNT(*) ----

func TestCountStarVariant(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	ni := query(t, db, workload.KiesslingQ2CountStar, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(10)", "(8)")
	ja2 := query(t, db, workload.KiesslingQ2CountStar, engine.Options{Strategy: engine.TransformJA2})
	wantRows(t, ja2, "(10)", "(8)")
}

// ---- Experiment E5 (section 5.3): the non-equality bug ----

// Q5 (the "<" variant): nested iteration and NEST-JA2 yield {8}; Kim's
// NEST-JA yields {10, 8} because its temp table aggregates per inner
// join-column value instead of over the range each outer tuple sees.
func TestNonEqualityBugReproduced(t *testing.T) {
	db := newDB(t, 8, workload.LoadNonEquality)
	ni := query(t, db, workload.GanskiQ5, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(8)")

	ja2 := query(t, db, workload.GanskiQ5, engine.Options{Strategy: engine.TransformJA2})
	wantRows(t, ja2, "(8)")

	kim := query(t, db, workload.GanskiQ5, engine.Options{Strategy: engine.TransformKim})
	wantRows(t, kim, "(10)", "(8)") // the paper's buggy result
}

// ---- Experiments E6/E7 (sections 5.4, 6.1): duplicates ----

// With duplicate outer join-column values, NEST-JA2's DISTINCT projection
// keeps COUNT correct: {3, 10, 8} under all correct strategies.
func TestDuplicatesHandled(t *testing.T) {
	db := newDB(t, 8, workload.LoadDuplicates)
	ni := query(t, db, workload.KiesslingQ2, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(3)", "(10)", "(8)")
	ja2 := query(t, db, workload.KiesslingQ2, engine.Options{Strategy: engine.TransformJA2})
	wantRows(t, ja2, "(3)", "(10)", "(8)")
}

// ---- The introduction's example queries under both strategies ----

func TestPaperExamplesAgree(t *testing.T) {
	queries := []string{
		"SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')",
		"SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)",
		"SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 15)",
		"SELECT SNAME FROM S WHERE SNO IS IN (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
		"SELECT PNAME FROM P WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
	}
	db := newDB(t, 8, workload.LoadSuppliers)
	for _, sql := range queries {
		ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
		ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
		// Kim's Lemma 1 equates IN with a join *as sets*: the join form
		// repeats an outer tuple once per inner match, so comparison is
		// over distinct rows (see TestNestNJDuplicationIsPaperFaithful).
		if d := diffNI(sql, ja2, ni); d != "" {
			t.Errorf("%q: JA2 vs NI: %s", sql, d)
		}
	}
}

// NEST-N-J inherits Kim's Lemma 1 set semantics: flattening IN into a join
// duplicates an outer tuple once per matching inner tuple. The paper fixes
// duplicate handling only inside NEST-JA2's temp table (section 5.4); for
// plain type-J queries the canonical form is a set-equivalent join. This
// test documents that inherited behavior on the paper's example 4.
func TestNestNJDuplicationIsPaperFaithful(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	sql := "SELECT SNAME FROM S WHERE SNO IS IN (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)"
	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
	if len(ni.Rows) != 4 {
		t.Errorf("nested iteration rows = %d, want 4", len(ni.Rows))
	}
	if len(ja2.Rows) <= len(ni.Rows) {
		t.Errorf("expected join-induced duplicates in canonical form, got %d rows", len(ja2.Rows))
	}
	if d := storage.Diff(storage.AgreeSet, ja2.Rows, ni.Rows); d != "" {
		t.Errorf("distinct rows differ: %s", d)
	}
}

// ---- Experiment E10 (section 8): extended predicates ----

func TestExtendedPredicatesAgree(t *testing.T) {
	queries := []string{
		"SELECT PNUM FROM PARTS WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
		"SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
		"SELECT PNUM FROM PARTS WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
		"SELECT PNUM FROM PARTS WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
		"SELECT PNUM FROM PARTS WHERE QOH >= ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
	}
	db := newDB(t, 8, workload.LoadKiessling)
	for _, sql := range queries {
		ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
		ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
		if ja2.FellBack {
			t.Errorf("%q fell back", sql)
		}
		if d := storage.Diff(storage.AgreeBag, ja2.Rows, ni.Rows); d != "" {
			t.Errorf("%q: JA2 vs NI: %s", sql, d)
		}
	}
}

// The paper calls the ANY/ALL rewrites "logically (but not necessarily
// semantically) equivalent": over an *empty* correlated set, x > ALL S is
// TRUE under nested iteration but x > MAX(S) = NULL rejects the row after
// transformation. This test documents that known, paper-faithful
// divergence.
func TestAllOverEmptySetDivergesAsInPaper(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	sql := `SELECT PNUM FROM PARTS
	        WHERE QOH > ALL (SELECT QUAN FROM SUPPLY
	                         WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE > 1-1-99)`
	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(3)", "(10)", "(8)") // ALL over empty is TRUE
	ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
	wantRows(t, ja2) // MAX over empty is NULL: rows rejected
}

// ---- Fallback behavior ----

func TestFallbackForNonTransformable(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	sql := "SELECT SNAME FROM S WHERE STATUS > 100 OR SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')"
	res := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
	if !res.FellBack {
		t.Error("expected fallback for a subquery under OR")
	}
	wantRows(t, res, "('Smith')", "('Jones')", "('Blake')", "('Clark')")

	if _, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true}); err == nil {
		t.Error("NoFallback must surface the transformation error")
	}
}

// NOT IN runs through the NULL-aware anti-join without falling back — the
// beyond-paper extension.
func TestNotInViaAntiJoin(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	sql := "SELECT SNAME FROM S WHERE SNO NOT IN (SELECT SNO FROM SP WHERE PNO = 'P2')"
	res := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
	if res.FellBack {
		t.Error("anti-join must not fall back")
	}
	wantRows(t, res, "('Adams')")
	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	if d := storage.Diff(storage.AgreeBag, res.Rows, ni.Rows); d != "" {
		t.Errorf("anti-join diverges from NI: %s", d)
	}
}

// ---- Forced join methods (the section 7.4 combinations) ----

func TestForcedJoinMethodsAgreeOnResults(t *testing.T) {
	methods := []planner.JoinMethod{planner.JoinAuto, planner.JoinMerge, planner.JoinNL}
	db := newDB(t, 8, workload.LoadKiessling)
	baseline := ""
	for _, tempJoin := range methods {
		for _, finalJoin := range methods {
			res := query(t, db, workload.KiesslingQ2, engine.Options{
				Strategy: engine.TransformJA2,
				Planner:  planner.Options{TempJoin: tempJoin, FinalJoin: finalJoin},
			})
			rs := sortedRows(res)
			if baseline == "" {
				baseline = rs
				continue
			}
			if rs != baseline {
				t.Errorf("temp=%v final=%v rows = %v, want %v", tempJoin, finalJoin, rs, baseline)
			}
		}
	}
	if baseline != "(10) (8)" {
		t.Errorf("baseline rows = %v", baseline)
	}
}

// ---- Measured I/O: the transformation beats nested iteration when the
// inner relation does not fit in the buffer pool (the regime that
// motivated Kim and the paper). ----

func TestTransformBeatsNestedIterationOnIO(t *testing.T) {
	db := engine.New(4) // tiny pool: SUPPLY cannot stay cached
	if err := db.CreateRelation(&schema.Relation{Name: "PARTS", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt}, {Name: "QOH", Type: value.KindInt},
	}}, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation(&schema.Relation{Name: "SUPPLY", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt}, {Name: "QUAN", Type: value.KindInt},
	}}, 4); err != nil {
		t.Fatal(err)
	}
	for k := range 200 {
		if err := db.Insert("PARTS", storage.Tuple{value.NewInt(int64(k)), value.NewInt(int64(k % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	for k := range 400 {
		if err := db.Insert("SUPPLY", storage.Tuple{value.NewInt(int64(k % 200)), value.NewInt(int64(k % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	db.Seal("PARTS")
	db.Seal("SUPPLY")

	sql := `SELECT PNUM FROM PARTS
	        WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`
	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
	if d := storage.Diff(storage.AgreeBag, ja2.Rows, ni.Rows); d != "" {
		t.Fatalf("results differ: JA2 vs NI: %s", d)
	}
	if ja2.Stats.Total() >= ni.Stats.Total() {
		t.Errorf("JA2 I/O %v not below NI I/O %v", ja2.Stats, ni.Stats)
	}
	// The paper's section 4 claim: savings of 80%-95% are attainable.
	savings := 1 - float64(ja2.Stats.Total())/float64(ni.Stats.Total())
	if savings < 0.8 {
		t.Errorf("savings = %.0f%%, want >= 80%%", savings*100)
	}
	t.Logf("NI: %v; JA2: %v; savings %.1f%%", ni.Stats, ja2.Stats, savings*100)
}

// ---- Engine surface ----

func TestExplainReport(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	rep, err := db.Explain(workload.KiesslingQ2, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"type-JA", "CREATE TEMP1", "CREATE TEMP3", "Measured cost", "Rows: 2"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("Explain output missing %q:\n%s", frag, rep)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	if _, err := db.Query("NOT SQL", engine.Options{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := db.Query("SELECT X FROM NOPE", engine.Options{}); err == nil {
		t.Error("resolve error not surfaced")
	}
	if err := db.Insert("NOPE", storage.Tuple{}); err == nil {
		t.Error("insert into unknown relation")
	}
	if err := db.Insert("PARTS", storage.Tuple{value.NewInt(1)}); err == nil {
		t.Error("arity mismatch not caught")
	}
	if err := db.Seal("NOPE"); err == nil {
		t.Error("seal of unknown relation")
	}
	if err := db.CreateRelation(&schema.Relation{Name: "PARTS", Columns: []schema.Column{{Name: "X"}}}, 0); err == nil {
		t.Error("duplicate relation not caught")
	}
}

func TestStrategyStrings(t *testing.T) {
	if engine.NestedIteration.String() != "nested-iteration" {
		t.Error(engine.NestedIteration.String())
	}
	if !strings.Contains(engine.TransformJA2.String(), "JA2") {
		t.Error(engine.TransformJA2.String())
	}
	if !strings.Contains(engine.TransformKim.String(), "Kim") {
		t.Error(engine.TransformKim.String())
	}
}

// Temp tables must not leak across queries: run the same transformed
// query repeatedly and ensure catalog stays clean.
func TestTempTableCleanup(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	for range 5 {
		query(t, db, workload.KiesslingQ2, engine.Options{Strategy: engine.TransformJA2})
	}
	for _, name := range db.Catalog().Names() {
		if strings.HasPrefix(name, "TEMP") {
			t.Errorf("leaked temp relation %s", name)
		}
	}
}

// An outer alias that shadows a generated temp name still executes
// correctly end to end under NEST-JA2 (temp scopes are separate).
func TestOuterAliasShadowingTempName(t *testing.T) {
	db := newDB(t, 8, workload.LoadNonEquality)
	sql := `
		SELECT TEMP1.PNUM FROM PARTS TEMP1
		WHERE TEMP1.QOH = (SELECT MAX(QUAN) FROM SUPPLY
		                   WHERE SUPPLY.PNUM = TEMP1.PNUM)`
	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
	if d := storage.Diff(storage.AgreeBag, ja2.Rows, ni.Rows); d != "" {
		t.Errorf("alias shadowing diverges: JA2 vs NI: %s", d)
	}
}

// hasKind reports whether res's trace holds an event of kind k.
func hasKind(res *engine.Result, k trace.Kind) bool { return slices.ContainsFunc(res.Trace, isKind(k)) }

func isKind(k trace.Kind) func(trace.Event) bool {
	return func(e trace.Event) bool { return e.Kind == k }
}

// traceText renders res's trace, for failure messages and for the plan
// outline fragments no event kind names.
func traceText(res *engine.Result) string { return strings.Join(trace.Lines(res.Trace), "\n") }

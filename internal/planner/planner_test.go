package planner_test

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/trace"
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
	res, err := transform.New(db.Cat, variant).AsPaper(opts.AsPaper).Transform(qb)
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(db.Cat, db.Store, opts)
	rows, _, err := pl.Run(res)
	if err != nil {
		t.Fatalf("plan/run: %v\nnotes:\n%s", err, notesText(pl.Trace))
	}
	return rows, pl
}

// note matches events of kind k in plan block label.
func note(k trace.Kind, label string) func(trace.Event) bool {
	return func(e trace.Event) bool { return e.Kind == k && e.Label == label }
}

// notesText renders events, for failure messages and the plan outline
// fragments no event kind names.
func notesText(events []trace.Event) string { return strings.Join(trace.Lines(events), "\n") }

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
	elided := func(label, side string) func(trace.Event) bool {
		return func(e trace.Event) bool { return note(trace.SortElided, label)(e) && e.Text == side }
	}
	for what, match := range map[string]func(trace.Event) bool{
		"TEMP1 projection sorted for DISTINCT":   note(trace.DistinctSort, "TEMP1"),
		"TEMP3 left input (TEMP1) pre-sorted":    elided("TEMP3", "left"),
		"TEMP3 in GROUP BY order from its join":  note(trace.GroupOrdered, "TEMP3"),
		"final right input (TEMP3) in key order": elided("final", "right"),
	} {
		if !slices.ContainsFunc(pl.Trace, match) {
			t.Errorf("notes miss %s:\n%s", what, notesText(pl.Trace))
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
	if !slices.ContainsFunc(pl.Trace, note(trace.MergeInapplicable, "TEMP2")) {
		t.Errorf("expected fallback note, got:\n%s", notesText(pl.Trace))
	}
}

// autoChoice plans the COUNT query over RI, with keys distinct JC values
// (six rows each), and RJ, of inner rows, at 2 rows a page in a pool of b
// pages, and returns its trace. TEMP1 holds keys rows, 32 to a page.
func autoChoice(t *testing.T, keys, innerTuples, b int, opts planner.Options) []trace.Event {
	t.Helper()
	db := workload.NewDB(b)
	cols := []schema.Column{{Name: "JC", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}
	outer := make([]storage.Tuple, 6*keys)
	for k := range outer {
		outer[k] = storage.Tuple{value.NewInt(int64(k % keys)), value.NewInt(int64(k % 3))}
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
		transform.JA2, opts)
	return pl.Trace
}

// Cost-based choice: a large right side favors merge join; a small one
// that fits in the buffer pool favors nested loops, whose slot an equality
// join fills with the inline hash join — no exchange, no goroutine. The
// temp join group-joins wherever TEMP1 fits B−1 pages, so both choices are
// watched where it does not: 120 keys are 4 TEMP1 pages, past B−1 = 3.
func TestPlannerAutoChoice(t *testing.T) {
	// Large inner, small pool: merge join chosen somewhere.
	if notes := autoChoice(t, 120, 400, 4, planner.Options{}); !slices.ContainsFunc(notes, func(e trace.Event) bool { return e.Kind == trace.MergeJoin }) {
		t.Errorf("large inner should use merge join:\n%s", notesText(notes))
	}
	hashJoin := func(label string, outer bool, keys ...exec.ColID) func(trace.Event) bool {
		return func(e trace.Event) bool {
			return note(trace.HashJoin, label)(e) && e.Outer == outer && e.N == 1 && slices.Equal(e.Cols, keys)
		}
	}
	// Tiny inner: nested loops is cheaper for the temp join.
	notes := autoChoice(t, 120, 4, 4, planner.Options{})
	for what, match := range map[string]func(trace.Event) bool{
		"TEMP3 outer hash join":   hashJoin("TEMP3", true, exec.ColID{Table: "TEMP1", Column: "JC"}, exec.ColID{Table: "TEMP2", Column: "JC"}),
		"TEMP3 in GROUP BY order": note(trace.GroupOrdered, "TEMP3"),
	} {
		if !slices.ContainsFunc(notes, match) {
			t.Errorf("small inner should use the inline hash join; notes miss the %s:\n%s", what, notesText(notes))
		}
	}
	if text := notesText(notes); !strings.Contains(text, "OuterHashJoin(left#0 = right#0, out=[0 2])") {
		t.Errorf("small inner: plan outline misses the outer hash join:\n%s", text)
	}
	// Tiny inner, large pool: the final join is the inline hash join too.
	before := runtime.NumGoroutine()
	notes = autoChoice(t, 10, 4, 64, planner.Options{})
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("a sequential plan left %d goroutine(s) behind", after-before)
	}
	text := notesText(notes)
	if !slices.ContainsFunc(notes, hashJoin("final", false, exec.ColID{Table: "RI", Column: "JC"}, exec.ColID{Table: "TEMP3", Column: "JC"},
		exec.ColID{Table: "RI", Column: "V"}, exec.ColID{Table: "TEMP3", Column: "CT"})) ||
		!strings.Contains(text, "HashJoin(left#0 <=> right#0, left#1 = right#1, out=[0])") {
		t.Errorf("small inner, large pool: notes miss the final inline hash join:\n%s", text)
	}
	if slices.ContainsFunc(notes, func(e trace.Event) bool {
		return e.Kind == trace.NestedLoops || e.Kind == trace.ParallelGroup || e.Kind == trace.HashJoin && e.N > 1
	}) {
		t.Errorf("small inner: notes place nested loops or a parallel operator:\n%s", text)
	}
}

// TEMP1 resident in B−1 pages is section 7.2's favorable case, and the
// temp join group-joins it; one page more and it sort-merges. At 32 rows
// a page, 96 keys are 3 pages and 97 are 4, against B = 4.
func TestGroupJoinAtPoolBoundary(t *testing.T) {
	for _, c := range []struct {
		keys  int
		group bool
	}{{96, true}, {97, false}} {
		notes := autoChoice(t, c.keys, 400, 4, planner.Options{})
		grouped := slices.ContainsFunc(notes, func(e trace.Event) bool {
			return note(trace.GroupJoin, "TEMP3")(e) && e.Outer && e.M == 3 && e.B == 4 && e.N == 96
		})
		merged := slices.ContainsFunc(notes, note(trace.MergeJoin, "TEMP3"))
		if grouped != c.group || merged == c.group {
			t.Errorf("TEMP1 of %d rows: group join %v, merge join %v; want group join %v:\n%s", c.keys, grouped, merged, c.group, notesText(notes))
		}
	}
}

// A SpillForced plan is the one whose every buffer can spill, and a group
// join hard-charges its groups: the shape that group-joins by default
// sort-merges under it.
func TestSpillForcedNeverGroupJoins(t *testing.T) {
	forced := planner.Options{QC: qctx.New(qctx.Limits{Spill: qctx.SpillForced})}
	for _, opts := range []planner.Options{{}, forced} {
		notes := autoChoice(t, 10, 400, 8, opts)
		grouped := slices.ContainsFunc(notes, func(e trace.Event) bool { return e.Kind == trace.GroupJoin })
		if grouped != (opts.QC == nil) || opts.QC != nil && !slices.ContainsFunc(notes, note(trace.MergeJoin, "TEMP3")) {
			t.Errorf("SpillForced %v: group join %v:\n%s", opts.QC != nil, grouped, notesText(notes))
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
	if !slices.ContainsFunc(pl.Trace, func(e trace.Event) bool { return e.Kind == trace.Constant && e.Detail.Val == value.NewString("P6") }) {
		t.Errorf("notes:\n%s", notesText(pl.Trace))
	}
}

// Temporary tables never reach the catalog, and their files are dropped
// from the store after Run.
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
	if n := db.Store.TempCount(); n != 0 {
		t.Errorf("store leaked %d temporary files", n)
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

// TempTuplesPerPage shapes temp sizes: a materialized temp's file, and
// the file a temp held in memory would have had.
func TestPlannerTempPageSize(t *testing.T) {
	db := kiessling(t, 8)
	for _, asPaper := range []bool{false, true} {
		_, pl := runPlanned(t, db, workload.KiesslingQ2, transform.JA2,
			planner.Options{TempTuplesPerPage: 1, AsPaper: asPaper})
		kind := trace.Resident
		if asPaper {
			kind = trace.Materialized
		}
		if !slices.ContainsFunc(pl.Trace, func(e trace.Event) bool { return note(kind, "TEMP1")(e) && e.N == 3 && e.M == 3 }) {
			t.Errorf("AsPaper %v: TEMP1 sizing wrong:\n%s", asPaper, notesText(pl.Trace))
		}
	}
}

// A temp a forced nested-loops join reads is not held in memory, since
// that join's right side must be a file: it is written once, as the
// paper's plan writes it, while a temp other joins read is still held.
func TestNestedLoopsReadTempsFromFile(t *testing.T) {
	db := kiessling(t, 8)
	_, pl := runPlanned(t, db, workload.KiesslingQ2, transform.JA2, planner.Options{FinalJoin: planner.JoinNL})
	var temp1, temp3 []trace.Kind
	for _, e := range pl.Trace {
		if e.Kind == trace.Resident || e.Kind == trace.Materialized {
			switch e.Label {
			case "TEMP1":
				temp1 = append(temp1, e.Kind)
			case "TEMP3":
				temp3 = append(temp3, e.Kind)
			}
		}
	}
	if !slices.Equal(temp1, []trace.Kind{trace.Resident}) || !slices.Equal(temp3, []trace.Kind{trace.Materialized}) {
		t.Errorf("TEMP1 built %v, TEMP3 %v; want TEMP1 held and TEMP3 written once:\n%s", temp1, temp3, notesText(pl.Trace))
	}
}

func TestJoinMethodString(t *testing.T) {
	if planner.JoinAuto.String() != "auto" ||
		planner.JoinMerge.String() != "merge" ||
		planner.JoinNL.String() != "nested-loops" {
		t.Error("join method names")
	}
}

// EXPLAIN names a temp by its logical name wherever a plan reads it, as a
// scan of its rows held in memory, as a nested-loops join's stored right
// side or as the streamed subtree under its one reader's join, never by
// its file.
func TestPlanNamesTempsLogically(t *testing.T) {
	db := kiessling(t, 8)
	_, pl := runPlanned(t, db, workload.KiesslingQ2, transform.JA2,
		planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinNL})
	text := notesText(pl.Trace)
	for _, want := range []string{"ResidentScan(TEMP1, ", "NestedLoopJoin(right=TEMP3, ",
		"OuterMergeJoin(left#0 = right#0, out=[0 2])\n    ResidentScan(TEMP1, 3 tuples in memory)\n    Sort(keys=[0])\n      Project([TEMP2.PNUM TEMP2.SHIPDATE])\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("plans miss %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "$tmp") {
		t.Errorf("a plan names a temp by its file:\n%s", text)
	}
}

// A restriction temp streams into its reader only when it is read once,
// from a FROM clause the planner plans. Read twice it is held in memory;
// read from a constant subquery the evaluator runs through Planner.Temp,
// it is materialized; and every shape answers as the same query over
// SUPPLY does under nested iteration.
func TestTempStreamsOnlyWhenReadOnce(t *testing.T) {
	db := kiessling(t, 8)
	parts, _ := db.Cat.Lookup("PARTS")
	supply, _ := db.Cat.Lookup("SUPPLY")
	temp1 := &schema.Relation{Name: "TEMP1", Columns: supply.Columns[:2]}
	withTemp := schema.NewCatalog()
	for _, r := range []*schema.Relation{parts, supply, temp1} {
		if err := withTemp.Define(r); err != nil {
			t.Fatal(err)
		}
	}
	parse := func(cat *schema.Catalog, sql string) *ast.QueryBlock {
		qb, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := schema.Resolve(cat, qb); err != nil {
			t.Fatal(err)
		}
		return qb
	}
	const restrict = "SUPPLY.QUAN > 1"
	for _, c := range []struct {
		name, query, oracle string
		streams, held       bool
	}{
		{"once", "SELECT PARTS.PNUM, TEMP1.QUAN FROM PARTS, TEMP1 WHERE PARTS.PNUM = TEMP1.PNUM",
			"SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY WHERE PARTS.PNUM = SUPPLY.PNUM AND " + restrict, true, false},
		{"twice", "SELECT A.PNUM, B.QUAN FROM TEMP1 A, TEMP1 B WHERE A.PNUM = B.PNUM",
			"SELECT A.PNUM, B.QUAN FROM SUPPLY A, SUPPLY B WHERE A.PNUM = B.PNUM AND A.QUAN > 1 AND B.QUAN > 1", false, true},
		{"constant subquery", "SELECT PARTS.PNUM FROM PARTS WHERE PARTS.QOH > (SELECT COUNT(TEMP1.PNUM) FROM TEMP1)",
			"SELECT PARTS.PNUM FROM PARTS WHERE PARTS.QOH > (SELECT COUNT(SUPPLY.PNUM) FROM SUPPLY WHERE " + restrict + ")", false, false},
		{"from and constant subquery",
			"SELECT PARTS.PNUM FROM PARTS, TEMP1 WHERE PARTS.PNUM = TEMP1.PNUM AND TEMP1.QUAN < (SELECT COUNT(TEMP1.PNUM) FROM TEMP1)",
			"SELECT PARTS.PNUM FROM PARTS, SUPPLY WHERE PARTS.PNUM = SUPPLY.PNUM AND " + restrict +
				" AND SUPPLY.QUAN < (SELECT COUNT(S2.PNUM) FROM SUPPLY S2 WHERE S2.QUAN > 1)", false, false},
	} {
		res := &transform.Result{
			Temps: []transform.TempTable{{Name: "TEMP1", Rel: temp1,
				Def: parse(db.Cat, "SELECT SUPPLY.PNUM, SUPPLY.QUAN FROM SUPPLY WHERE "+restrict)}},
			Query: parse(withTemp, c.query),
		}
		pl := planner.New(db.Cat, db.Store, planner.Options{})
		rows, _, err := pl.Run(res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		streamed := slices.ContainsFunc(pl.Trace, func(e trace.Event) bool { return e.Kind == trace.Streamed && e.Text == "TEMP1" })
		materialized := slices.ContainsFunc(pl.Trace, note(trace.Materialized, "TEMP1"))
		held := slices.ContainsFunc(pl.Trace, note(trace.Resident, "TEMP1"))
		if streamed != c.streams || held != c.held || materialized != (!c.streams && !c.held) {
			t.Errorf("%s: streamed %v, held %v, materialized %v, want streamed %v, held %v:\n%s",
				c.name, streamed, held, materialized, c.streams, c.held, notesText(pl.Trace))
		}
		ev := exec.NewEvaluator(db.Cat, db.Store)
		want, _, err := ev.EvalQuery(parse(db.Cat, c.oracle))
		ev.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := storage.Diff(storage.AgreeBag, rows, want); d != "" || len(want) == 0 {
			t.Errorf("%s: planned vs nested iteration: %s (%d rows)", c.name, d, len(want))
		}
		if n := db.Store.TempCount(); n != 0 {
			t.Errorf("%s: %d temp file(s) left", c.name, n)
		}
	}
}

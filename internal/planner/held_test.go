package planner_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
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

// heldDB is a B = 8 pool over R(K) holding 0..n-1. At two tuples a temp
// page, B−1 = 7 pages hold 14 rows.
const heldPage = 2

func heldDB(t *testing.T, n int) *workload.DB { return heldDBMod(t, n, n) }

// heldDBMod is heldDB with R's n keys taken modulo mod.
func heldDBMod(t *testing.T, n, mod int) *workload.DB {
	t.Helper()
	db := workload.NewDB(8)
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{value.NewInt(int64(i % mod))}
	}
	if err := db.Load(&schema.Relation{Name: "R", Columns: []schema.Column{{Name: "K", Type: value.KindInt}}}, 10, rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// heldRun plans the temps defs (TEMPi over R and the temps before it,
// named by its select list) and the final query over them, and reports the
// rows, the trace and the page writes Run made.
func heldRun(t *testing.T, db *workload.DB, defs []string, final string, opts planner.Options) ([]storage.Tuple, []trace.Event, int64, error) {
	t.Helper()
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
	withTemps := schema.NewCatalog()
	r, _ := db.Cat.Lookup("R")
	if err := withTemps.Define(r); err != nil {
		t.Fatal(err)
	}
	res := &transform.Result{}
	for i, def := range defs {
		qb := parse(withTemps, def)
		rel := &schema.Relation{Name: fmt.Sprintf("TEMP%d", i+1)}
		for _, it := range qb.Select {
			rel.Columns = append(rel.Columns, schema.Column{Name: it.OutputName(), Type: value.KindInt})
		}
		if err := withTemps.Define(rel); err != nil {
			t.Fatal(err)
		}
		res.Temps = append(res.Temps, transform.TempTable{Name: rel.Name, Rel: rel, Def: qb})
	}
	res.Query = parse(withTemps, final)
	opts.TempTuplesPerPage = heldPage
	before := db.Store.Stats().Writes
	pl := planner.New(db.Cat, db.Store, opts)
	rows, _, err := pl.Run(res)
	pl.DropTemps()
	if n := db.Store.TempCount(); n != 0 {
		t.Errorf("%d temp file(s) left", n)
	}
	return rows, pl.Trace, db.Store.Stats().Writes - before, err
}

// built finds how temp name was built: its Resident or Materialized event.
func built(events []trace.Event, name string) (trace.Event, bool) {
	i := slices.IndexFunc(events, func(e trace.Event) bool {
		return e.Label == name && (e.Kind == trace.Resident || e.Kind == trace.Materialized)
	})
	if i < 0 {
		return trace.Event{}, false
	}
	return events[i], true
}

const distinctTemp = "SELECT DISTINCT R.K FROM R"

// A temp of exactly B−1 pages is held in memory: no page is written, its
// reader scans its rows, and the trace reports the file it would have
// had. One row more and it goes to its file, with the page writes the
// paper's plan makes for it.
func TestHeldTempFitsBMinusOnePages(t *testing.T) {
	for _, c := range []struct {
		n     int
		kind  trace.Kind
		pages int64
	}{{14, trace.Resident, 7}, {15, trace.Materialized, 8}} {
		db := heldDB(t, c.n)
		rows, events, writes, err := heldRun(t, db, []string{distinctTemp}, "SELECT TEMP1.K FROM TEMP1", planner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, ok := built(events, "TEMP1")
		if !ok || e.Kind != c.kind || e.N != int64(c.n) || e.M != c.pages || len(rows) != c.n {
			t.Errorf("%d rows: TEMP1 built as %v, %d rows returned; want %v of %d tuples in %d pages:\n%s",
				c.n, e, len(rows), c.kind, c.n, c.pages, notesText(events))
		}
		_, _, paperWrites, err := heldRun(t, db, []string{distinctTemp}, "SELECT TEMP1.K FROM TEMP1", planner.Options{AsPaper: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[trace.Kind]int64{trace.Resident: 0, trace.Materialized: paperWrites}[c.kind]; writes != want || paperWrites != c.pages {
			t.Errorf("%d rows: %d page writes (AsPaper %d), want %d", c.n, writes, paperWrites, want)
		}
	}
}

// A budget that refuses the temp's bytes sends it to its file: the query
// neither fails with ErrMemoryBudget nor is canceled, so the engine has
// nothing to rerun. The DISTINCT sort holds its 14 rows until it closes;
// the tight budget leaves room for them, a staged page and five rows
// more. SpillForced refuses every grant, so its temps all go to file.
func TestHeldTempRefusedGrantWritesFile(t *testing.T) {
	db := heldDB(t, 14)
	row := int64(24 + 32) // one integer column, as the executor charges it
	for name, limits := range map[string]qctx.Limits{
		"tight budget": {MaxBytes: 14*row + 5*row + heldPage*row},
		"SpillForced":  {Spill: qctx.SpillForced},
	} {
		qc := qctx.New(limits)
		rows, events, writes, err := heldRun(t, db, []string{distinctTemp}, "SELECT TEMP1.K FROM TEMP1", planner.Options{QC: qc})
		if err != nil || qc.Err() != nil {
			t.Fatalf("%s: run: %v, query context: %v", name, err, qc.Err())
		}
		if e, ok := built(events, "TEMP1"); !ok || e.Kind != trace.Materialized || len(rows) != 14 || writes != 7 {
			t.Errorf("%s: TEMP1 built as %v, %d rows, %d page writes; want it materialized in 7 pages:\n%s", name, e, len(rows), writes, notesText(events))
		}
		if n := qc.BytesBuffered(); n != 0 {
			t.Errorf("%s: %d bytes still charged after Run", name, n)
		}
		qc.Finish()
	}
}

// Held temps release their grant when Run returns.
func TestHeldTempGrantReleased(t *testing.T) {
	db := heldDB(t, 14)
	qc := qctx.New(qctx.Limits{MaxBytes: 1 << 20})
	defer qc.Finish()
	_, events, _, err := heldRun(t, db, []string{distinctTemp}, "SELECT TEMP1.K FROM TEMP1", planner.Options{QC: qc})
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := built(events, "TEMP1"); e.Kind != trace.Resident {
		t.Fatalf("TEMP1 not held:\n%s", notesText(events))
	}
	if n := qc.BytesBuffered(); n != 0 {
		t.Errorf("%d bytes still charged after Run", n)
	}
}

// A temp a subquery names is read by the constant-subquery evaluator
// through Planner.Temp, so it keeps its file even where it fits.
func TestHeldTempNotInSubquery(t *testing.T) {
	db := heldDB(t, 6)
	rows, events, _, err := heldRun(t, db, []string{distinctTemp},
		"SELECT R.K FROM R WHERE R.K < (SELECT COUNT(TEMP1.K) FROM TEMP1)", planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := built(events, "TEMP1"); !ok || e.Kind != trace.Materialized || len(rows) != 6 {
		t.Errorf("TEMP1 built as %v, %d rows; want it materialized, 6 rows:\n%s", e, len(rows), notesText(events))
	}
}

// The temps held at once fill at most B−1 pages: two of 4 pages each do
// not fit 7, so the second goes to its file.
func TestHeldTempsShareBMinusOnePages(t *testing.T) {
	db := heldDB(t, 14)
	rows, events, writes, err := heldRun(t, db,
		[]string{"SELECT DISTINCT R.K FROM R WHERE R.K < 8", "SELECT DISTINCT R.K FROM R WHERE R.K >= 6"},
		"SELECT TEMP1.K FROM TEMP1, TEMP2 WHERE TEMP1.K = TEMP2.K", planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := built(events, "TEMP1")
	second, _ := built(events, "TEMP2")
	if first.Kind != trace.Resident || first.M != 4 || second.Kind != trace.Materialized || second.M != 4 || writes != 4 {
		t.Errorf("TEMP1 %v, TEMP2 %v, %d page writes; want TEMP1 held and TEMP2 written in 4 pages:\n%s", first, second, writes, notesText(events))
	}
	if got := rowStrs(rows); got != "(6) (7)" {
		t.Errorf("rows = %s", got)
	}
	if !strings.Contains(notesText(events), "ResidentScan(TEMP1, 8 tuples in memory)") {
		t.Errorf("no plan scans TEMP1's rows in memory:\n%s", notesText(events))
	}
}

// A held temp's grant goes back when its last reader is planned, whose
// operators then charge what they buffer of its rows, as they would
// reading its file. So the smallest budget the plan that writes every
// temp runs in (KeepTemps) runs the plan that holds them too, with no
// spill session to fall back on. The shape is NEST-JA2's: a DISTINCT
// TEMP1 group-joined into TEMP2, which the final query hash-joins and
// sorts; that sort of 60 rows sets the budget, so both temps are held,
// and neither the final hash join nor the sort may find their grants
// still charged.
func TestHeldTempsFitTheWrittenPlansBudget(t *testing.T) {
	db := heldDBMod(t, 60, 6)
	defs := []string{distinctTemp, "SELECT TEMP1.K, COUNT(R.K) AS C FROM TEMP1, R WHERE TEMP1.K = R.K GROUP BY TEMP1.K"}
	const final = "SELECT R.K, TEMP2.C FROM R, TEMP2 WHERE R.K = TEMP2.K ORDER BY R.K"
	run := func(maxBytes int64, keep bool) ([]storage.Tuple, []trace.Event, error) {
		qc := qctx.New(qctx.Limits{MaxBytes: maxBytes})
		defer qc.Finish()
		rows, events, _, err := heldRun(t, db, defs, final, planner.Options{QC: qc, KeepTemps: keep})
		if err == nil {
			err = qc.Err()
		}
		if err != nil && !errors.Is(err, qctx.ErrMemoryBudget) {
			t.Fatal(err)
		}
		return rows, events, err
	}
	// The smallest budget the written plan runs in.
	lo, hi := int64(1), int64(1<<20)
	for lo < hi {
		if mid := (lo + hi) / 2; func() bool { _, _, err := run(mid, true); return err == nil }() {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	want, _, err := run(lo, true)
	if err != nil {
		t.Fatalf("KeepTemps at %d bytes: %v", lo, err)
	}
	rows, events, err := run(lo, false)
	if err != nil {
		t.Fatalf("%d bytes run the plan that writes every temp, not the one that holds them: %v\n%s", lo, err, notesText(events))
	}
	for _, name := range []string{"TEMP1", "TEMP2"} {
		if e, _ := built(events, name); e.Kind != trace.Resident {
			t.Errorf("%s not held at %d bytes:\n%s", name, lo, notesText(events))
		}
	}
	if got := rowStrs(rows); got != rowStrs(want) || len(rows) != 60 {
		t.Errorf("rows = %s, want %s", got, rowStrs(want))
	}
}

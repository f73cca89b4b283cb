package exec_test

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/workload"
)

// runNI parses, resolves, and evaluates a query by nested iteration.
func runNI(t *testing.T, db *workload.DB, src string) []storage.Tuple {
	t.Helper()
	qb, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	ev := exec.NewEvaluator(db.Cat, db.Store)
	defer ev.Close()
	rows, _, err := ev.EvalQuery(qb)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return rows
}

// rowStrings renders rows sorted, for order-insensitive comparison.
func rowStrings(rows []storage.Tuple) []string { return storage.Canon(storage.AgreeBag, rows) }

func wantRows(t *testing.T, got []storage.Tuple, want ...string) {
	t.Helper()
	sort.Strings(want)
	gs := rowStrings(got)
	if strings.Join(gs, " ") != strings.Join(want, " ") {
		t.Errorf("rows = %v, want %v", gs, want)
	}
}

func kiesslingDB(t *testing.T) *workload.DB {
	t.Helper()
	db := workload.NewDB(8)
	if err := workload.LoadKiessling(db); err != nil {
		t.Fatal(err)
	}
	return db
}

func suppliersDB(t *testing.T) *workload.DB {
	t.Helper()
	db := workload.NewDB(8)
	if err := workload.LoadSuppliers(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// Section 5.1: Kiessling's Q2 under nested iteration yields {10, 8}. This
// is the ground truth the COUNT bug violates.
func TestNIKiesslingQ2(t *testing.T) {
	db := kiesslingDB(t)
	wantRows(t, runNI(t, db, workload.KiesslingQ2), "(10)", "(8)")
}

// Section 5.2.1: the COUNT(*) variant has the same nested-iteration result
// on this instance.
func TestNIKiesslingQ2CountStar(t *testing.T) {
	db := kiesslingDB(t)
	wantRows(t, runNI(t, db, workload.KiesslingQ2CountStar), "(10)", "(8)")
}

// Section 5.3: query Q5 with the "<" correlated operator yields {8},
// "assuming MAX({}) = NULL".
func TestNIGanskiQ5(t *testing.T) {
	db := workload.NewDB(8)
	if err := workload.LoadNonEquality(db); err != nil {
		t.Fatal(err)
	}
	wantRows(t, runNI(t, db, workload.GanskiQ5), "(8)")
}

// Section 5.4: Q2 over the instance with duplicate outer join-column
// values yields {3, 10, 8}.
func TestNIDuplicatesQ2(t *testing.T) {
	db := workload.NewDB(8)
	if err := workload.LoadDuplicates(db); err != nil {
		t.Fatal(err)
	}
	wantRows(t, runNI(t, db, workload.KiesslingQ2), "(3)", "(10)", "(8)")
}

// The introduction's example 1: suppliers who supply part P2.
func TestNISuppliersOfP2(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT SNAME FROM S
		WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')`)
	wantRows(t, rows, "('Smith')", "('Jones')", "('Blake')", "('Clark')")
}

// Example 2 (type-A): the inner block is an independent aggregate.
func TestNITypeA(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT SNO FROM SP
		WHERE PNO = (SELECT MAX(PNO) FROM P)`)
	wantRows(t, rows, "('S1')") // only S1 supplies P6
}

// Example 3 (type-N): uncorrelated IN.
func TestNITypeN(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT SNO FROM SP
		WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 15)`)
	// Parts heavier than 15: P2, P3, P6.
	wantRows(t, rows, "('S1')", "('S1')", "('S1')", "('S2')", "('S3')", "('S4')")
	// The paper's literal example (WEIGHT > 50) selects nothing.
	wantRows(t, runNI(t, db, `
		SELECT SNO FROM SP
		WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 50)`))
}

// Example 4 (type-J): correlated join predicate, no aggregate.
func TestNITypeJ(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT SNAME FROM S
		WHERE SNO IS IN (SELECT SNO FROM SP
		                 WHERE QTY > 100 AND SP.ORIGIN = S.CITY)`)
	wantRows(t, rows, "('Smith')", "('Jones')", "('Blake')", "('Clark')")
}

// Example 5 (type-JA): correlated aggregate — "names of parts which have
// the highest part number in the city from which they are supplied".
func TestNITypeJA(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT PNAME FROM P
		WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)`)
	wantRows(t, rows, "('Screw')", "('Cam')", "('Cog')")
}

func TestNIExists(t *testing.T) {
	db := kiesslingDB(t)
	rows := runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	wantRows(t, rows, "(3)", "(10)", "(8)")

	rows = runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE EXISTS (SELECT QUAN FROM SUPPLY
		              WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`)
	wantRows(t, rows, "(3)", "(10)")

	rows = runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY
		                  WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`)
	wantRows(t, rows, "(8)")
}

func TestNIQuantified(t *testing.T) {
	db := kiesslingDB(t)
	// QOH < ANY (quantities of that part's shipments).
	rows := runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	// PARTS(3,6): quans {4,2}: 6 < none. (10,1): {1,2}: 1<2 yes. (8,0): {5}: yes.
	wantRows(t, rows, "(10)", "(8)")

	rows = runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	// (3,6): 6 > 4 and 6 > 2: yes. (10,1): no. (8,0): no.
	wantRows(t, rows, "(3)")

	// ALL over an empty correlated set is TRUE.
	rows = runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH > ALL (SELECT QUAN FROM SUPPLY
		                 WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE > 1-1-99)`)
	wantRows(t, rows, "(3)", "(10)", "(8)")

	// ANY over an empty set is FALSE.
	rows = runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH < ANY (SELECT QUAN FROM SUPPLY
		                 WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE > 1-1-99)`)
	wantRows(t, rows)
}

func TestNINotIn(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT SNAME FROM S
		WHERE SNO NOT IN (SELECT SNO FROM SP WHERE PNO = 'P2')`)
	wantRows(t, rows, "('Adams')")
}

func TestNIGroupByQuery(t *testing.T) {
	db := kiesslingDB(t)
	rows := runNI(t, db, `
		SELECT PNUM, COUNT(SHIPDATE) AS CT FROM SUPPLY
		WHERE SHIPDATE < 1-1-80 GROUP BY PNUM`)
	// Kim's NEST-JA temp table for Q2 ([KIE 84:4]): {(3,2),(10,1)}.
	wantRows(t, rows, "(3, 2)", "(10, 1)")
}

func TestNIGlobalAggregateEmptyInput(t *testing.T) {
	db := kiesslingDB(t)
	rows := runNI(t, db, `SELECT COUNT(QUAN), MAX(QUAN) FROM SUPPLY WHERE QUAN > 1000`)
	wantRows(t, rows, "(0, NULL)")
}

func TestNIDistinct(t *testing.T) {
	db := workload.NewDB(8)
	if err := workload.LoadDuplicates(db); err != nil {
		t.Fatal(err)
	}
	rows := runNI(t, db, `SELECT DISTINCT PNUM FROM PARTS`)
	wantRows(t, rows, "(3)", "(10)", "(8)")
}

func TestNIMultiTableJoin(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT SNAME FROM S, SP
		WHERE S.SNO = SP.SNO AND SP.PNO = 'P3'`)
	wantRows(t, rows, "('Smith')")
}

func TestNIOrPredicate(t *testing.T) {
	db := suppliersDB(t)
	rows := runNI(t, db, `
		SELECT SNAME FROM S WHERE CITY = 'Athens' OR STATUS = 10`)
	wantRows(t, rows, "('Adams')", "('Jones')")
}

func TestNIScalarSubqueryMultiRowError(t *testing.T) {
	db := suppliersDB(t)
	qb := sqlparser.MustParse(`
		SELECT SNAME FROM S
		WHERE SNO = (SELECT SNO FROM SP WHERE SP.ORIGIN = S.CITY)`)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	ev := exec.NewEvaluator(db.Cat, db.Store)
	defer ev.Close()
	_, _, err := ev.EvalQuery(qb)
	if err == nil || !strings.Contains(err.Error(), "scalar subquery returned") {
		t.Errorf("expected multi-row scalar error, got %v", err)
	}
}

// Scalar subquery over an empty correlated set yields NULL, so the
// comparison is Unknown and the outer row is rejected — section 5.3's
// MAX({}) = NULL assumption.
func TestNIScalarEmptyIsNull(t *testing.T) {
	db := kiesslingDB(t)
	rows := runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE > 1-1-99)`)
	wantRows(t, rows)
}

// Nested iteration I/O: a correlated inner relation larger than the buffer
// pool is re-read once per qualifying outer tuple — the Pi + f(i)·Ni·Pj
// cost that motivated Kim's transformations.
func TestNICorrelatedIOCost(t *testing.T) {
	db := workload.NewDB(2) // B = 2: SUPPLY (2+ pages) cannot stay cached
	if err := db.Load(&schema.Relation{Name: "PARTS", Columns: []schema.Column{
		{Name: "PNUM"}, {Name: "QOH"},
	}}, 1, tuples2(10)); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(&schema.Relation{Name: "SUPPLY", Columns: []schema.Column{
		{Name: "PNUM"}, {Name: "QUAN"},
	}}, 1, tuples2(4)); err != nil {
		t.Fatal(err)
	}
	db.Store.ResetStats()
	runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	// Pi = 10 pages read once; Pj = 4 pages re-read for each of the
	// Ni = 10 outer tuples: 10 + 10*4 = 50 reads.
	if got := db.Store.Stats().Reads; got != 50 {
		t.Errorf("nested iteration reads = %d, want 50", got)
	}
}

// Uncorrelated (type-N) inner blocks are evaluated once and materialized;
// re-evaluations scan the cached list, not the inner relation.
func TestNIUncorrelatedEvaluatedOnce(t *testing.T) {
	db := workload.NewDB(50)
	if err := db.Load(&schema.Relation{Name: "PARTS", Columns: []schema.Column{
		{Name: "PNUM"}, {Name: "QOH"},
	}}, 1, tuples2(10)); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(&schema.Relation{Name: "SUPPLY", Columns: []schema.Column{
		{Name: "PNUM"}, {Name: "QUAN"},
	}}, 1, tuples2(6)); err != nil {
		t.Fatal(err)
	}
	db.Store.ResetStats()
	runNI(t, db, `
		SELECT PNUM FROM PARTS
		WHERE QOH IN (SELECT QUAN FROM SUPPLY)`)
	// SUPPLY (6 pages) is read once to build the list X; X (6 pages at
	// 1-per-page... list tuples are 1-column so page capacity is the
	// default) is written and scanned per outer tuple through the pool,
	// where it stays cached. PARTS adds 10 reads.
	stats := db.Store.Stats()
	if stats.Reads > 10+6+2 {
		t.Errorf("uncorrelated IN cost too high: %+v", stats)
	}
}

// tuples2 builds n two-column tuples (k, k%3) for k = 0..n-1.
func tuples2(n int) []storage.Tuple {
	out := make([]storage.Tuple, n)
	for k := range n {
		out[k] = storage.Tuple{intv(int64(k)), intv(int64(k % 3))}
	}
	return out
}

func TestFreeRefsAndCorrelation(t *testing.T) {
	db := suppliersDB(t)
	qb := sqlparser.MustParse(`
		SELECT SNAME FROM S
		WHERE SNO IS IN (SELECT SNO FROM SP WHERE SP.ORIGIN = S.CITY)`)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	inner := ast.SubqueryOf(qb.Where[0])
	if !ast.IsCorrelated(inner) {
		t.Error("inner block must be correlated")
	}
	free := ast.FreeRefs(inner)
	if len(free) != 1 || free[0] != (ast.ColumnRef{Table: "S", Column: "CITY"}) {
		t.Errorf("FreeRefs = %v", free)
	}
	if ast.IsCorrelated(qb) {
		t.Error("whole query must not be correlated")
	}
}

// Name resolution between blocks, stated through EvalQuery on an unresolved
// tree so the evaluator itself must pick the frame: an unqualified column
// binds to the innermost block that has it, a qualified one reaches the
// outer block past an inner column of the same name, and a binding no
// block defines is an error.
func TestNIFrameShadowing(t *testing.T) {
	db := suppliersDB(t)
	eval := func(src string) ([]storage.Tuple, error) {
		ev := exec.NewEvaluator(db.Cat, db.Store)
		defer ev.Close()
		rows, _, err := ev.EvalQuery(sqlparser.MustParse(src))
		return rows, err
	}
	// S and P both have CITY; Oslo has a part (P3) and no supplier.
	rows, err := eval(`SELECT SNO FROM S WHERE STATUS = 30 AND EXISTS (SELECT PNO FROM P WHERE CITY = 'Oslo')`)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, rows, "('S3')", "('S5')") // inner CITY is P.CITY
	rows, err = eval(`SELECT SNO FROM S WHERE EXISTS (SELECT PNO FROM P WHERE P.CITY = 'Oslo' AND S.CITY = 'Athens')`)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, rows, "('S5')")
	// Within one block the later FROM entry is the inner frame.
	rows, err = eval(`SELECT SNO FROM S, P WHERE CITY = 'Oslo' AND STATUS = 10`)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, rows, "('S2')")
	if _, err := eval(`SELECT SNO FROM S WHERE EXISTS (SELECT PNO FROM P WHERE Q.CITY = 'Oslo')`); err == nil ||
		!strings.Contains(err.Error(), "no binding for column Q.CITY") {
		t.Errorf("unknown binding: err = %v", err)
	}
}

// The lifecycle contract of a root block: the row budget stops the scan
// within one row of the limit, a cancelled context surfaces its own cause
// mid-scan, and a relation the store does not hold is an error.
func TestNILifecycle(t *testing.T) {
	db := workload.NewDB(4)
	for _, name := range []string{"R", "Q"} {
		rel := &schema.Relation{Name: name, Columns: []schema.Column{{Name: "K"}, {Name: "V"}}}
		if err := db.Load(rel, 1, tuples2(40)); err != nil {
			t.Fatal(err)
		}
	}
	eval := func(qc *qctx.QueryContext, src string) error {
		qb := sqlparser.MustParse(src)
		if _, err := schema.Resolve(db.Cat, qb); err != nil {
			t.Fatal(err)
		}
		ev := exec.NewEvaluator(db.Cat, db.Store)
		ev.QC = qc
		defer ev.Close()
		_, _, err := ev.EvalQuery(qb)
		return err
	}
	const q = `SELECT A.K FROM R A WHERE A.V IN (SELECT B.V FROM Q B WHERE B.K = A.K)`

	qc := qctx.New(qctx.Limits{MaxRows: 5})
	db.Store.ResetStats()
	if err := eval(qc, q); !errors.Is(err, qctx.ErrRowBudget) {
		t.Errorf("err = %v, want ErrRowBudget", err)
	}
	// Six outer tuples reached (one page each), each scanning all of Q.
	if got := db.Store.Stats().Reads; qc.RowsProduced() != 6 || got != 6+6*40 {
		t.Errorf("stopped after %d rows and %d reads, want 6 and %d", qc.RowsProduced(), got, 6+6*40)
	}

	cause := errors.New("operator gave up")
	qc = qctx.New(qctx.Limits{})
	db.Store.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: time.Millisecond}))
	time.AfterFunc(20*time.Millisecond, func() { qc.Cancel(cause) })
	db.Store.ResetStats()
	if err := eval(qc, q); err != cause {
		t.Errorf("err = %v, want the cancellation cause", err)
	}
	if got := db.Store.Stats().Reads; got == 0 || got >= 40+40*40 {
		t.Errorf("cancelled scan read %d pages, want some but not all %d", got, 40+40*40)
	}
	db.Store.SetFaults(nil)

	db.Store.Drop("R")
	if err := eval(nil, `SELECT K FROM R`); err == nil || !strings.Contains(err.Error(), "exec: no stored relation R") {
		t.Errorf("dropped relation: err = %v", err)
	}
}

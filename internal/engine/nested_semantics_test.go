package engine_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// The nested-iteration semantics table: what the ground-truth evaluator
// returns, stated through engine.Query alone so it holds however the
// evaluator is built. The cases are the ones a rewrite can get wrong —
// name shadowing between blocks, correlation reaching two blocks out,
// Libkin's three-valued cases for IN / ANY / ALL, scalar cardinality, the
// refusals, and DML through a correlated WHERE.
const semanticsSetup = `
	CREATE TABLE S (SNO INTEGER, CITY VARCHAR(10));
	INSERT INTO S VALUES (1, 'Oslo'), (2, 'Rome'), (3, 'Bonn');
	CREATE TABLE P (PNO INTEGER, CITY VARCHAR(10));
	INSERT INTO P VALUES (10, 'Oslo'), (11, 'Oslo'), (12, 'Rome'), (13, 'Kiev');
	CREATE TABLE SP (SNO INTEGER, PNO INTEGER);
	INSERT INTO SP VALUES (1, 10), (1, 12), (2, 12), (3, 13);
	CREATE TABLE L (K INTEGER, X INTEGER);
	INSERT INTO L VALUES (1, 1), (2, 2), (3, NULL);
	CREATE TABLE N (X INTEGER);
	INSERT INTO N VALUES (1), (NULL);
	CREATE TABLE E (X INTEGER);
`

func semanticsDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(8)
	if _, err := db.Exec(semanticsSetup, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return db
}

var ni = engine.Options{Strategy: engine.NestedIteration}

func TestNestedIterationSemantics(t *testing.T) {
	db := semanticsDB(t)
	cases := []struct {
		name, sql string
		want      []string
	}{
		// An inner table with a column named like the outer's: the inner
		// frame shadows the outer one, a qualified reference reaches past it.
		{"shadow unqualified", `SELECT SNO FROM S WHERE EXISTS (SELECT PNO FROM P WHERE CITY = 'Kiev')`,
			[]string{"(1)", "(2)", "(3)"}},
		{"shadow unqualified vs outer", `SELECT SNO FROM S WHERE EXISTS (SELECT PNO FROM P WHERE CITY = S.CITY)`,
			[]string{"(1)", "(2)"}},
		{"shadow qualified", `SELECT SNO FROM S WHERE 2 = (SELECT COUNT(PNO) FROM P WHERE P.CITY = S.CITY)`,
			[]string{"(1)"}},
		{"shadow same table", `SELECT A.SNO FROM S A WHERE A.SNO > (SELECT MIN(S.SNO) FROM S WHERE S.CITY <> A.CITY)`,
			[]string{"(2)", "(3)"}},
		{"outer ref only", `SELECT SNO FROM S WHERE EXISTS (SELECT PNO FROM P WHERE S.CITY = 'Bonn')`,
			[]string{"(3)"}},
		// Three levels, the innermost correlated with both enclosing blocks.
		{"two blocks out", `SELECT S.SNO FROM S WHERE EXISTS (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO AND
			EXISTS (SELECT P.PNO FROM P WHERE P.PNO = SP.PNO AND P.CITY = S.CITY))`,
			[]string{"(1)", "(2)"}},
		{"two blocks out, count", `SELECT S.SNO FROM S WHERE 1 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO AND
			SP.PNO IN (SELECT P.PNO FROM P WHERE P.CITY <> S.CITY))`,
			[]string{"(1)", "(3)"}},
		{"uncorrelated inside correlated", `SELECT S.SNO FROM S WHERE EXISTS (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO AND
			SP.PNO IN (SELECT P.PNO FROM P WHERE P.CITY = 'Rome'))`,
			[]string{"(1)", "(2)"}},
		// EXISTS / NOT EXISTS.
		{"exists", `SELECT PNO FROM P WHERE EXISTS (SELECT SNO FROM SP WHERE SP.PNO = P.PNO)`,
			[]string{"(10)", "(12)", "(13)"}},
		{"not exists", `SELECT PNO FROM P WHERE NOT EXISTS (SELECT SNO FROM SP WHERE SP.PNO = P.PNO)`,
			[]string{"(11)"}},
		{"exists uncorrelated empty", `SELECT PNO FROM P WHERE EXISTS (SELECT X FROM E)`, nil},
		{"not exists uncorrelated empty", `SELECT K FROM L WHERE NOT EXISTS (SELECT X FROM E)`,
			[]string{"(1)", "(2)", "(3)"}},
		// A scalar subquery over no rows is NULL; an uncorrelated aggregate is a constant.
		{"scalar empty", `SELECT K FROM L WHERE X <> (SELECT N.X FROM N WHERE N.X = L.K AND N.X > 1)`, nil},
		{"scalar one row", `SELECT K FROM L WHERE X = (SELECT N.X FROM N WHERE N.X = L.K)`, []string{"(1)"}},
		{"scalar constant", `SELECT K FROM L WHERE X = (SELECT COUNT(X) FROM N)`, []string{"(1)"}},
	}
	for _, c := range cases {
		res, err := db.Query(c.sql, ni)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := sortedRows(res); got != strings.Join(c.want, " ") {
			t.Errorf("%s: rows = %s, want %v", c.name, got, c.want)
		}
	}
}

// TestNestedIterationThreeValued walks Libkin's catalogue: IN, NOT IN,
// op ANY and op ALL over an empty set, a set holding a NULL, and with a
// NULL left operand (L's third row). Every case runs twice — the inner
// block uncorrelated (evaluated once, kept as the list X) and trivially
// correlated (re-evaluated per outer tuple) — and must agree.
func TestNestedIterationThreeValued(t *testing.T) {
	db := semanticsDB(t)
	all := []string{"(1)", "(2)", "(3)"}
	cases := []struct {
		pred, set string
		want      []string
	}{
		{"X IN", "E", nil},
		{"X NOT IN", "E", all}, // NULL NOT IN {} is TRUE
		{"X = ANY", "E", nil},
		{"X > ALL", "E", all}, // ALL over {} is TRUE, NULL operand included
		{"X IN", "N", []string{"(1)"}},
		{"X NOT IN", "N", nil}, // 2 NOT IN {1, NULL} is UNKNOWN
		{"X = ANY", "N", []string{"(1)"}},
		{"X <> ALL", "N", nil},
		{"X >= ANY", "N", []string{"(1)", "(2)"}},
		{"X >= ALL", "N", nil}, // 1 >= NULL is UNKNOWN
		{"X < ALL", "N", nil},
		{"X < ANY", "N", nil},
	}
	for _, c := range cases {
		for _, corr := range []string{"", " WHERE L.K > 0"} {
			sql := "SELECT K FROM L WHERE " + c.pred + " (SELECT " + c.set + ".X FROM " + c.set + corr + ")"
			res, err := db.Query(sql, ni)
			if err != nil {
				t.Errorf("%s: %v", sql, err)
				continue
			}
			if got := sortedRows(res); got != strings.Join(c.want, " ") {
				t.Errorf("%s: rows = %s, want %v", sql, got, c.want)
			}
		}
	}
}

func TestNestedIterationRefusals(t *testing.T) {
	db := semanticsDB(t)
	cases := []struct{ name, sql, want string }{
		{"scalar with two rows", `SELECT SNO FROM S WHERE 10 = (SELECT PNO FROM P WHERE P.CITY = S.CITY)`,
			"exec: scalar subquery returned 2 rows"},
		{"outer-join operator", `SELECT SNO FROM S WHERE SNO =+ 1`,
			"exec: outer-join operator =+ is only valid in transformed temporary-table definitions"},
		{"outer-join operator in inner block", `SELECT SNO FROM S WHERE EXISTS (SELECT PNO FROM P WHERE P.CITY =+ S.CITY)`,
			"exec: outer-join operator =+ is only valid in transformed temporary-table definitions"},
		{"missing relation", `SELECT SNO FROM S WHERE EXISTS (SELECT Y FROM NOWHERE)`, "NOWHERE"},
	}
	for _, c := range cases {
		_, err := db.Query(c.sql, ni)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// The refusal is the predicate's, raised when a row reaches it: over an
	// empty relation the same operator is never evaluated.
	if res, err := db.Query(`SELECT X FROM E WHERE X =+ 1`, ni); err != nil || len(res.Rows) != 0 {
		t.Errorf("outer-join operator over no rows: %v, %v", res, err)
	}
}

// DELETE and UPDATE run their WHERE through the same evaluator, correlated
// subqueries included, and change exactly the rows the equivalent SELECT
// returns.
func TestDMLCorrelatedWhere(t *testing.T) {
	const where = ` WHERE 1 = (SELECT COUNT(SP.SNO) FROM SP WHERE SP.PNO = P.PNO) AND
		P.CITY IN (SELECT S.CITY FROM S)`
	db := semanticsDB(t)
	wantRows(t, query(t, db, `SELECT PNO FROM P`+where, ni), "(10)")
	res, err := db.Exec(`UPDATE P SET CITY = 'Lima'`+where, engine.Options{})
	if err != nil || res.Affected != 1 {
		t.Fatalf("UPDATE: affected %v, err %v", res, err)
	}
	wantRows(t, query(t, db, `SELECT PNO, CITY FROM P`, ni),
		"(10, 'Lima')", "(11, 'Oslo')", "(12, 'Rome')", "(13, 'Kiev')")

	const gone = ` WHERE NOT EXISTS (SELECT SP.SNO FROM SP WHERE SP.PNO = P.PNO) OR
		2 = (SELECT COUNT(SP.SNO) FROM SP WHERE SP.PNO = P.PNO)`
	wantRows(t, query(t, db, `SELECT PNO FROM P`+gone, ni), "(11)", "(12)")
	res, err = db.Exec(`DELETE FROM P`+gone, engine.Options{})
	if err != nil || res.Affected != 2 {
		t.Fatalf("DELETE: affected %v, err %v", res, err)
	}
	wantRows(t, query(t, db, `SELECT PNO FROM P`, ni), "(10)", "(13)")
	// A WHERE that fails mid-table leaves the table as it was.
	if _, err := db.Exec(`DELETE FROM S WHERE SNO = (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)`, engine.Options{}); err == nil ||
		!strings.Contains(err.Error(), "scalar subquery returned 2 rows") {
		t.Errorf("DELETE with a two-row scalar: err = %v", err)
	}
	wantRows(t, query(t, db, `SELECT SNO FROM S`, ni), "(1)", "(2)", "(3)")
}

// Nested iteration groups and deduplicates by value — Hash and Equal, as
// every operator of a transformed plan does — not by display text: -0.0
// and 0.0 print differently and are one value to Compare, Equal and Hash.
func TestNestedIterationGroupsByValue(t *testing.T) {
	db := engine.New(8)
	loadTable(t, db, &schema.Relation{Name: "T", Columns: []schema.Column{
		{Name: "K", Type: value.KindInt}, {Name: "X", Type: value.KindFloat}}},
		storage.Tuple{value.NewInt(1), value.NewFloat(0)},
		storage.Tuple{value.NewInt(2), value.NewFloat(math.Copysign(0, -1))},
		storage.Tuple{value.NewInt(3), value.NewFloat(1)})
	for _, strat := range bothStrategies {
		opts := engine.Options{Strategy: strat}
		wantRows(t, query(t, db, `SELECT DISTINCT X FROM T`, opts), "(0)", "(1)")
		wantRows(t, query(t, db, `SELECT X, COUNT(K) FROM T GROUP BY X`, opts), "(0, 2)", "(1, 1)")
	}
}

// An uncorrelated scalar subquery without an aggregate follows the rule of
// the correlated form: no row is NULL, one row is its value, more is an
// error. (It is kept as the list X, not as a constant.)
func TestUncorrelatedScalarSubquery(t *testing.T) {
	db := engine.New(8)
	if _, err := db.Exec(`CREATE TABLE T (K INTEGER, X INTEGER);
		INSERT INTO T VALUES (1, 10), (2, 20), (3, 10)`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, strat := range bothStrategies {
		opts := engine.Options{Strategy: strat}
		wantRows(t, query(t, db, `SELECT K FROM T WHERE X = (SELECT X FROM T WHERE K = 1)`, opts), "(1)", "(3)")
		wantRows(t, query(t, db, `SELECT K FROM T WHERE X <> (SELECT X FROM T WHERE K = 4)`, opts))
	}
	_, err := db.Query(`SELECT K FROM T WHERE X = (SELECT X FROM T WHERE X = 10)`, ni)
	if err == nil || !strings.Contains(err.Error(), "exec: scalar subquery returned 2 rows") {
		t.Errorf("two-row scalar: err = %v", err)
	}
}

package engine_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

func rowsInOrder(res *engine.Result) string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return strings.Join(out, " ")
}

func TestOrderByBothStrategies(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	sql := "SELECT SNAME, STATUS FROM S WHERE STATUS >= 20 ORDER BY STATUS DESC, SNAME"
	want := "('Adams', 30) ('Blake', 30) ('Clark', 20) ('Smith', 20)"
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		res := query(t, db, sql, engine.Options{Strategy: s})
		if got := rowsInOrder(res); got != want {
			t.Errorf("%v order = %v, want %v", s, got, want)
		}
	}
}

func TestOrderByOnNestedQuery(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	sql := workload.KiesslingQ2 + " ORDER BY PNUM"
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		res := query(t, db, sql, engine.Options{Strategy: s})
		if got := rowsInOrder(res); got != "(8) (10)" {
			t.Errorf("%v order = %v", s, got)
		}
	}
	sql = workload.KiesslingQ2 + " ORDER BY PNUM DESC"
	res := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
	if got := rowsInOrder(res); got != "(10) (8)" {
		t.Errorf("desc order = %v", got)
	}
}

func TestOrderByAggregateOutput(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	sql := `SELECT PNUM, COUNT(SHIPDATE) AS CT FROM SUPPLY GROUP BY PNUM ORDER BY CT DESC, PNUM`
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		res := query(t, db, sql, engine.Options{Strategy: s})
		if got := rowsInOrder(res); got != "(3, 2) (10, 2) (8, 1)" {
			t.Errorf("%v order = %v", s, got)
		}
	}
}

func TestOrderByByAlias(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	sql := "SELECT SNAME AS N FROM S ORDER BY N"
	res := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	if got := rowsInOrder(res); got != "('Adams') ('Blake') ('Clark') ('Jones') ('Smith')" {
		t.Errorf("alias order = %v", got)
	}
}

func TestOrderByErrors(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	cases := []string{
		// ORDER BY column not in the SELECT list.
		"SELECT SNAME FROM S ORDER BY STATUS",
		// ORDER BY inside a subquery.
		"SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP ORDER BY QTY)",
		// Unknown column.
		"SELECT SNAME FROM S ORDER BY NOPE",
	}
	for _, sql := range cases {
		if _, err := db.Query(sql, engine.Options{}); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

// A type-JA query whose aggregate is over a DATE column exercises the
// aggregate-type plumbing through the whole transformation.
func TestDateAggregateThroughJA2(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	sql := `
		SELECT PNUM FROM PARTS
		WHERE QOH < 100 AND
		      PNUM = (SELECT MAX(PNUM) FROM SUPPLY
		              WHERE SUPPLY.PNUM = PARTS.PNUM AND
		                    SHIPDATE = (SELECT MAX(SHIPDATE) FROM SUPPLY))`
	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
	if sortedRows(ni) != sortedRows(ja2) {
		t.Errorf("date aggregate diverges:\n  NI: %v\n  JA2: %v", sortedRows(ni), sortedRows(ja2))
	}
	// MAX(SHIPDATE) over all of SUPPLY is 5-7-83, shipped for part 8.
	if sortedRows(ni) != "(8)" {
		t.Errorf("ground truth = %v", sortedRows(ni))
	}
}

func TestHavingBothStrategies(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	sql := `SELECT ORIGIN, COUNT(QTY) AS CT, MAX(QTY) AS MX FROM SP
	        GROUP BY ORIGIN HAVING CT >= 3 AND MX > 300 ORDER BY ORIGIN`
	// London: 7 shipments, max 400; Paris: 4 shipments, max 400; Oslo: 1.
	want := "('London', 7, 400) ('Paris', 4, 400)"
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		res := query(t, db, sql, engine.Options{Strategy: s})
		if got := rowsInOrder(res); got != want {
			t.Errorf("%v = %v, want %v", s, got, want)
		}
	}
}

func TestHavingOnGroupColumnName(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	sql := `SELECT PNUM, COUNT(QUAN) AS CT FROM SUPPLY GROUP BY PNUM HAVING PNUM < 9`
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		res := query(t, db, sql, engine.Options{Strategy: s})
		if got := rowsInOrder(res); got != "(3, 2) (8, 1)" && got != "(8, 1) (3, 2)" {
			t.Errorf("%v = %v", s, got)
		}
	}
}

// TestOrderByUnderParallelism is the regression test for ordering under
// Parallelism's hash operators: a hash aggregation emits its groups in
// first-seen order, not key order, so the plan must place the ORDER BY
// sort above it (it reports no sort order, forbidding the section 7.4
// sort elisions). The full ordered row string — not a sorted bag — must
// match the sequential plan on every run.
func TestOrderByUnderParallelism(t *testing.T) {
	popts := func() engine.Options {
		o := engine.Options{Strategy: engine.TransformJA2, NoFallback: true}
		o.Planner.Parallelism = 4
		return o
	}
	t.Run("aggregate", func(t *testing.T) {
		db := newDB(t, 8, workload.LoadSuppliers)
		sql := `SELECT ORIGIN, COUNT(QTY) AS CT FROM SP GROUP BY ORIGIN ORDER BY CT DESC, ORIGIN`
		seq := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
		sawParallel := false
		for range 25 { // ordering bugs are racy: one pass is not evidence
			par := query(t, db, sql, popts())
			if got, want := rowsInOrder(par), rowsInOrder(seq); got != want {
				t.Fatalf("parallel order = %v, want %v", got, want)
			}
			sawParallel = sawParallel || usedParallel(par, seq)
		}
		if !sawParallel {
			t.Error("no run used a parallel plan; test exercises nothing")
		}
	})
	t.Run("nested", func(t *testing.T) {
		db := newDB(t, 8, workload.LoadDuplicates)
		sql := workload.KiesslingQ2 + " ORDER BY PNUM DESC"
		for range 25 {
			par := query(t, db, sql, popts())
			if got := rowsInOrder(par); got != "(10) (8) (3)" {
				t.Fatalf("parallel nested order = %v, want (10) (8) (3)", got)
			}
		}
	})
}

func TestHavingErrors(t *testing.T) {
	db := newDB(t, 8, workload.LoadSuppliers)
	cases := []string{
		// HAVING without aggregates.
		"SELECT SNAME FROM S HAVING SNAME = 'x'",
		// Unknown output column.
		"SELECT ORIGIN, COUNT(QTY) AS CT FROM SP GROUP BY ORIGIN HAVING NOPE > 1",
		// Qualified reference.
		"SELECT ORIGIN, COUNT(QTY) AS CT FROM SP GROUP BY ORIGIN HAVING SP.CT > 1",
		// Type mismatch.
		"SELECT ORIGIN, COUNT(QTY) AS CT FROM SP GROUP BY ORIGIN HAVING CT > 'x'",
		// Non-literal right side.
		"SELECT ORIGIN, COUNT(QTY) AS CT FROM SP GROUP BY ORIGIN HAVING CT > QTY",
	}
	for _, sql := range cases {
		if _, err := db.Query(sql, engine.Options{}); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

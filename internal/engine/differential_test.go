package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// Differential testing: on randomized PARTS/SUPPLY-shaped instances, the
// transformed evaluation must agree with nested iteration (the semantic
// ground truth) for every combination of aggregate function, correlated
// comparison operator, and scalar operator the algorithms cover.
//
// NEST-JA2 is duplicate-exact (each outer tuple matches at most one temp
// group), so type-JA comparisons are over bags. Type-N/J comparisons are
// over sets (Kim's Lemma 1 semantics, see README).

// randomInstance loads randomized PARTS (with duplicate join values and
// zero QOH rows, the COUNT bug triggers) and SUPPLY relations.
func randomInstance(t *testing.T, rng *rand.Rand, bufferPages int) *engine.DB {
	t.Helper()
	db := engine.New(bufferPages)
	nParts := rng.Intn(12) + 1
	parts := make([]storage.Tuple, nParts)
	for i := range parts {
		parts[i] = storage.Tuple{
			value.NewInt(int64(rng.Intn(6))), // PNUM: small domain -> duplicates
			value.NewInt(int64(rng.Intn(4))), // QOH: small -> hits COUNT values
		}
	}
	nSupply := rng.Intn(15)
	supply := make([]storage.Tuple, nSupply)
	for i := range supply {
		supply[i] = storage.Tuple{
			value.NewInt(int64(rng.Intn(6))),  // PNUM
			value.NewInt(int64(rng.Intn(5))),  // QUAN
			value.NewInt(int64(rng.Intn(10))), // SDAY: stands in for SHIPDATE
		}
	}
	loadTable(t, db, &schema.Relation{Name: "PARTS", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt},
		{Name: "QOH", Type: value.KindInt},
	}}, parts...)
	loadTable(t, db, &schema.Relation{Name: "SUPPLY", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt},
		{Name: "QUAN", Type: value.KindInt},
		{Name: "SDAY", Type: value.KindInt},
	}}, supply...)
	return db
}

// loadTable creates rel at two tuples a page, fills it and seals it.
func loadTable(t *testing.T, db *engine.DB, rel *schema.Relation, rows ...storage.Tuple) {
	t.Helper()
	if err := db.CreateRelation(rel, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(rel.Name, rows...); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(rel.Name); err != nil {
		t.Fatal(err)
	}
}

// sortedRows is a result's bag in the shared comparator's form on one
// line, for holding against a literal expectation.
func sortedRows(res *engine.Result) string {
	return strings.Join(storage.Canon(storage.AgreeBag, res.Rows), " ")
}

// diffNI holds res against nested iteration's result of the same query
// the way the engine's rule says the strategy that produced it must
// agree (a query that fell back ran as nested iteration), and returns
// the shared comparator's verdict: "" or the first difference.
func diffNI(sql string, res, ni *engine.Result) string {
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		return err.Error()
	}
	s := res.Strategy
	if res.FellBack {
		s = engine.NestedIteration
	}
	return storage.Diff(engine.AgreementWithNI(qb, s), res.Rows, ni.Rows)
}

// TestDifferentialTypeJA sweeps aggregate × correlated operator × scalar
// operator over many random instances.
func TestDifferentialTypeJA(t *testing.T) {
	aggs := []string{"COUNT(QUAN)", "COUNT(*)", "MAX(QUAN)", "MIN(QUAN)", "SUM(QUAN)", "AVG(QUAN)"}
	joinOps := []string{"=", "<", ">", "<=", ">="}
	scalarOps := []string{"=", "<", ">="}
	const instances = 8
	for seed := range instances {
		dbRNG := rand.New(rand.NewSource(int64(seed)))
		for _, agg := range aggs {
			for _, jop := range joinOps {
				for _, sop := range scalarOps {
					sql := fmt.Sprintf(`
						SELECT PNUM, QOH FROM PARTS
						WHERE QOH %s (SELECT %s FROM SUPPLY
						              WHERE SUPPLY.PNUM %s PARTS.PNUM AND SDAY < 7)`,
						sop, agg, jop)
					db := randomInstance(t, dbRNG, 8)
					ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
					if err != nil {
						t.Fatalf("NI %q: %v", sql, err)
					}
					ja2, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
					if err != nil {
						t.Fatalf("JA2 %q: %v", sql, err)
					}
					if got, want := sortedRows(ja2), sortedRows(ni); got != want {
						t.Fatalf("seed=%d agg=%s jop=%s sop=%s:\n  sql: %s\n  NI:  %v\n  JA2: %v",
							seed, agg, jop, sop, sql, want, got)
					}
				}
			}
		}
	}
}

// TestDifferentialTypeJAAllJoinMethods re-runs a COUNT query under every
// forced join combination on random instances.
func TestDifferentialTypeJAAllJoinMethods(t *testing.T) {
	sql := `
		SELECT PNUM, QOH FROM PARTS
		WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM AND SDAY < 7)`
	for seed := range 10 {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		db := randomInstance(t, rng, 4)
		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatal(err)
		}
		want := sortedRows(ni)
		for tj := 0; tj < 3; tj++ {
			for fj := 0; fj < 3; fj++ {
				opts := engine.Options{Strategy: engine.TransformJA2, NoFallback: true}
				opts.Planner.TempJoin = plannerMethod(tj)
				opts.Planner.FinalJoin = plannerMethod(fj)
				res, err := db.Query(sql, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedRows(res); got != want {
					t.Fatalf("seed=%d temp=%d final=%d:\n  NI:  %v\n  got: %v", seed, tj, fj, want, got)
				}
			}
		}
	}
}

// TestDifferentialTypeNJ compares type-N and type-J queries as sets.
func TestDifferentialTypeNJ(t *testing.T) {
	queries := []string{
		// type-N: uncorrelated membership.
		`SELECT PNUM, QOH FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE SDAY < 7)`,
		// type-J: correlated membership.
		`SELECT PNUM, QOH FROM PARTS
		 WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		// type-J with a non-equality correlated predicate.
		`SELECT PNUM, QOH FROM PARTS
		 WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM)`,
		// scalar type-N (equality against a single-column block).
		`SELECT PNUM, QOH FROM PARTS WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SDAY < 5)`,
	}
	for seed := range 12 {
		rng := rand.New(rand.NewSource(int64(500 + seed)))
		db := randomInstance(t, rng, 8)
		for _, sql := range queries {
			ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
			if err != nil {
				t.Fatal(err)
			}
			ja2, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffNI(sql, ja2, ni); d != "" {
				t.Fatalf("seed=%d %q: JA2 vs NI: %s", seed, sql, d)
			}
		}
	}
}

// TestDifferentialExists compares EXISTS/NOT EXISTS (bag-exact: the
// rewrite goes through NEST-JA2, which joins each outer row to exactly one
// temp group).
func TestDifferentialExists(t *testing.T) {
	queries := []string{
		`SELECT PNUM, QOH FROM PARTS
		 WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SDAY < 6)`,
		`SELECT PNUM, QOH FROM PARTS
		 WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SDAY < 6)`,
	}
	for seed := range 12 {
		rng := rand.New(rand.NewSource(int64(900 + seed)))
		db := randomInstance(t, rng, 8)
		for _, sql := range queries {
			ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
			if err != nil {
				t.Fatal(err)
			}
			ja2, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedRows(ja2), sortedRows(ni); got != want {
				t.Fatalf("seed=%d %q:\n  NI:  %v\n  JA2: %v", seed, sql, want, got)
			}
		}
	}
}

// TestTwoSubqueryPredicatesFallBack: a predicate with a subquery on each
// side — a comparison, or an IN — has no rewrite in the paper. NEST-JA2
// and Kim's NEST-JA fall back to nested iteration and answer what it does.
func TestTwoSubqueryPredicatesFallBack(t *testing.T) {
	queries := []string{
		`SELECT PNUM FROM PARTS WHERE (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)
		 = (SELECT COUNT(SDAY) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SDAY < 6)`,
		`SELECT PNUM FROM PARTS WHERE (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)
		 IN (SELECT P2.QOH FROM PARTS P2)`,
	}
	for seed := range 6 {
		db := randomInstance(t, rand.New(rand.NewSource(int64(950+seed))), 8)
		for _, sql := range queries {
			ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []engine.Strategy{engine.TransformJA2, engine.TransformKim} {
				res, err := db.Query(sql, engine.Options{Strategy: s})
				if err != nil {
					t.Fatalf("seed=%d %v %q: %v", seed, s, sql, err)
				}
				if !res.FellBack {
					t.Errorf("seed=%d %v %q: transformed, want a fallback to nested iteration", seed, s, sql)
				}
				if d := diffNI(sql, res, ni); d != "" {
					t.Errorf("seed=%d %v %q: %s", seed, s, sql, d)
				}
			}
		}
	}
}

// Section 5.2's note: a type-JA query with COUNT *and* a non-equality
// correlated operator needs the scalar operator inside the outer join.
// Hand-checked on the section 5.3 instance: only part 3 (QOH = 0, no
// smaller part numbers) qualifies.
func TestCountWithNonEqualityOperator(t *testing.T) {
	db := engine.New(8)
	w := &workload.DB{Cat: db.Catalog(), Store: db.Store()}
	if err := workload.LoadNonEquality(w); err != nil {
		t.Fatal(err)
	}
	sql := `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		             WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80)`
	ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
	if err != nil {
		t.Fatal(err)
	}
	ja2, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(ni); got != "(3)" {
		t.Errorf("NI = %v, want (3)", got)
	}
	if got, want := sortedRows(ja2), sortedRows(ni); got != want {
		t.Errorf("JA2 = %v, want %v", got, want)
	}
}

func plannerMethod(i int) planner.JoinMethod {
	switch i {
	case 1:
		return planner.JoinMerge
	case 2:
		return planner.JoinNL
	default:
		return planner.JoinAuto
	}
}

// Kim's NEST-JA is *correct* for non-COUNT aggregates with equality
// correlation (the paper: "For aggregate functions other than COUNT Kim's
// algorithm NEST-JA works correctly for nested join predicates containing
// the equality operator") — empty groups vanish from the temp table, but
// nested iteration rejects those outer rows anyway because AGG({}) is
// NULL. This differential pins our Kim implementation to that boundary.
func TestDifferentialKimCorrectCases(t *testing.T) {
	aggs := []string{"MAX(QUAN)", "MIN(QUAN)", "SUM(QUAN)", "AVG(QUAN)"}
	for seed := range 10 {
		rng := rand.New(rand.NewSource(int64(3000 + seed)))
		db := randomInstance(t, rng, 8)
		for _, agg := range aggs {
			sql := fmt.Sprintf(`
				SELECT PNUM, QOH FROM PARTS
				WHERE QOH = (SELECT %s FROM SUPPLY
				             WHERE SUPPLY.PNUM = PARTS.PNUM AND SDAY < 7)`, agg)
			ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
			if err != nil {
				t.Fatal(err)
			}
			kim, err := db.Query(sql, engine.Options{Strategy: engine.TransformKim, NoFallback: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedRows(kim), sortedRows(ni); got != want {
				t.Fatalf("seed=%d agg=%s: Kim should be correct here:\n  NI:  %v\n  Kim: %v",
					seed, agg, want, got)
			}
		}
	}
}

// And the converse boundary: with COUNT, Kim diverges from nested
// iteration on at least some instances (the COUNT bug is not an artifact
// of the fixed example). We assert divergence appears somewhere across
// the seeds, and that NEST-JA2 never diverges.
func TestDifferentialKimCountBugAppears(t *testing.T) {
	sql := `
		SELECT PNUM, QOH FROM PARTS
		WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM AND SDAY < 7)`
	diverged := false
	for seed := range 20 {
		rng := rand.New(rand.NewSource(int64(4000 + seed)))
		db := randomInstance(t, rng, 8)
		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatal(err)
		}
		kim, err := db.Query(sql, engine.Options{Strategy: engine.TransformKim, NoFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		if sortedRows(kim) != sortedRows(ni) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("the COUNT bug never manifested across 20 random instances; generator too tame?")
	}
}

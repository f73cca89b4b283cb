package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/qctx"
)

// Regression: NEST-JA2's step-4 back-join must be NULL-safe. For a COUNT
// aggregate, nested iteration counts an empty set for an outer row whose
// correlation key is NULL (the correlated predicate is Unknown for every
// inner row), so the row survives whenever `outer op 0` holds. The
// transform materializes that CT=0 group in TEMP3, but a plain equality
// back-join (TEMP3.K = A.K) is Unknown on NULL keys and silently dropped
// the group — Kim's COUNT bug resurfacing one join later. Found by the
// metamorph fuzzer (internal/metamorph), minimized by its shrinker to a
// single NULL-keyed outer row; kept here because the bug lived in the
// transform/exec layers, not the fuzzer.
const nullKeySetup = `
	CREATE TABLE NKA (R INTEGER, K INTEGER, V INTEGER, PRIMARY KEY (R));
	INSERT INTO NKA VALUES (1, NULL, 0), (2, 7, 1), (3, NULL, 2);
	CREATE TABLE NKB (ID INTEGER, K INTEGER, W INTEGER, PRIMARY KEY (ID));
	INSERT INTO NKB VALUES (10, 7, 1), (11, NULL, 2);
`

func newNullKeyDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(8)
	if _, err := db.Exec(nullKeySetup, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNestJA2NullCorrelationKeyCount(t *testing.T) {
	db := newNullKeyDB(t)
	// R=1: COUNT over the empty correlated set is 0, V=0 <= 0 holds.
	// R=2: one matching shipment (the NULL-keyed NKB row matches nothing).
	// R=3: COUNT=0 but V=2, dropped.
	sql := `SELECT NKA.R, NKA.V FROM NKA
	        WHERE NKA.V <= (SELECT COUNT(*) FROM NKB WHERE NKB.K = NKA.K)`

	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(1, 0)", "(2, 1)")

	// The transform must agree under every join method for both the temp
	// builds and the final back-join, and under the parallel hash join.
	for tj := 0; tj < 3; tj++ {
		for fj := 0; fj < 3; fj++ {
			opts := engine.Options{Strategy: engine.TransformJA2, NoFallback: true}
			opts.Planner.TempJoin = planner.JoinMethod(tj)
			opts.Planner.FinalJoin = planner.JoinMethod(fj)
			wantRows(t, query(t, db, sql, opts), "(1, 0)", "(2, 1)")
		}
	}
	par := engine.Options{Strategy: engine.TransformJA2, NoFallback: true}
	par.Planner.Parallelism = 2
	wantRows(t, query(t, db, sql, par), "(1, 0)", "(2, 1)")
}

// NOT EXISTS reaches the same back-join through the section 8.2 rewrite to
// `0 = (SELECT COUNT(*) ...)`: NULL-keyed outer rows have no matching inner
// rows and must be kept.
func TestNestJA2NullCorrelationKeyNotExists(t *testing.T) {
	db := newNullKeyDB(t)
	sql := `SELECT NKA.R FROM NKA
	        WHERE NOT EXISTS (SELECT NKB.ID FROM NKB WHERE NKB.K = NKA.K)`

	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(1)", "(3)")

	ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
	wantRows(t, ja2, "(1)", "(3)")
}

// Non-COUNT aggregates take the other step-3 branch, where TEMP3 carries no
// NULL group keys; the NULL-safe back-join must coincide with plain
// equality there: NULL-keyed outer rows compare against a NULL aggregate
// and are dropped, exactly as nested iteration drops them.
func TestNestJA2NullCorrelationKeyNonCount(t *testing.T) {
	db := newNullKeyDB(t)
	sql := `SELECT NKA.R FROM NKA
	        WHERE NKA.V <= (SELECT MAX(NKB.W) FROM NKB WHERE NKB.K = NKA.K)`

	ni := query(t, db, sql, engine.Options{Strategy: engine.NestedIteration})
	wantRows(t, ni, "(2)")

	ja2 := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
	wantRows(t, ja2, "(2)")
}

// Section 5.2.1 turns COUNT(*) into COUNT over an inner join column, which
// must be non-NULL on every real match. Under a <=> correlation it is not:
// a NULL-keyed match has a NULL join column, and COUNT skips it. A block
// correlated only by <=> has no such column and runs by nested iteration;
// one that also correlates by = counts that column and still transforms.
// Each shape must agree with nested iteration on the default plan, the
// paper's plan, a forced-spill plan and a forced-parallel plan.
func TestNestJA2NullSafeCountStar(t *testing.T) {
	db := engine.New(8)
	if _, err := db.Exec(`
		CREATE TABLE RI (JC INTEGER, VAL INTEGER);
		INSERT INTO RI VALUES (NULL, 2), (1, 1), (NULL, 0);
		CREATE TABLE RJ (JC INTEGER);
		INSERT INTO RJ VALUES (NULL), (NULL), (1);
		CREATE TABLE MI (JC INTEGER, K INTEGER, VAL INTEGER);
		INSERT INTO MI VALUES (NULL, 1, 2), (1, 1, 1), (NULL, 1, 0), (NULL, NULL, 0);
		CREATE TABLE MJ (JC INTEGER, K INTEGER);
		INSERT INTO MJ VALUES (NULL, 1), (NULL, 1), (1, 1), (NULL, NULL);
	`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	regimes := map[string]func(*engine.Options){
		"default":         func(*engine.Options) {},
		"AsPaper":         func(o *engine.Options) { o.Planner.AsPaper = true },
		"SpillForced":     func(o *engine.Options) { o.Spill = qctx.SpillForced },
		"forced-parallel": func(o *engine.Options) { o.Planner.Parallelism = 2 },
	}
	for _, c := range []struct {
		name, sql  string
		transforms bool
		want       []string
	}{
		{"NullSafeOnly", `SELECT RI.JC, RI.VAL FROM RI WHERE
			RI.VAL = (SELECT COUNT(*) FROM RJ WHERE RJ.JC <=> RI.JC)`,
			false, []string{"(NULL, 2)", "(1, 1)"}},
		{"NullSafeAndEq", `SELECT MI.JC, MI.K, MI.VAL FROM MI WHERE
			MI.VAL = (SELECT COUNT(*) FROM MJ WHERE MJ.JC <=> MI.JC AND MJ.K = MI.K)`,
			true, []string{"(NULL, 1, 2)", "(1, 1, 1)", "(NULL, NULL, 0)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ni := query(t, db, c.sql, engine.Options{Strategy: engine.NestedIteration})
			wantRows(t, ni, c.want...)
			for name, set := range regimes {
				opts := engine.Options{Strategy: engine.TransformJA2, NoFallback: c.transforms}
				set(&opts)
				res, err := db.Query(c.sql, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.FellBack == c.transforms {
					t.Errorf("%s: fell back = %v, want %v:\n%s", name, res.FellBack, !c.transforms, traceText(res))
				}
				if d := diffNI(c.sql, res, ni); d != "" {
					t.Errorf("%s: NEST-JA2 != nested iteration: %s", name, d)
				}
			}
		})
	}
}

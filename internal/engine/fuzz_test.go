package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// A grammar-based fuzzer: random nested queries of random shape and depth
// over three integer relations, executed under nested iteration (ground
// truth) and under the transformation strategy (with fallback allowed).
// Results are compared as sets — the NEST-N-J join form is set-equivalent
// (Kim's Lemma 1) — and queries the transformer rejects must still return
// correct rows via the fallback path.

// fuzzDB loads three small relations RA/RB/RC(K, V, W).
func fuzzDB(t *testing.T, rng *rand.Rand) *engine.DB {
	t.Helper()
	db := engine.New(6)
	for _, name := range []string{"RA", "RB", "RC"} {
		rel := &schema.Relation{Name: name, Columns: []schema.Column{
			{Name: "K", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
			{Name: "W", Type: value.KindInt},
		}}
		if err := db.CreateRelation(rel, 2); err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(10) + 1
		for range n {
			row := storage.Tuple{
				value.NewInt(int64(rng.Intn(5))),
				value.NewInt(int64(rng.Intn(4))),
				value.NewInt(int64(rng.Intn(6))),
			}
			if err := db.Insert(name, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Seal(name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// queryGen builds random query text.
type queryGen struct {
	rng     *rand.Rand
	nextVar int
}

var fuzzTables = []string{"RA", "RB", "RC"}
var fuzzCols = []string{"K", "V", "W"}
var fuzzOps = []string{"=", "<", ">", "<=", ">=", "!="}
var fuzzAggs = []string{"COUNT(%s.V)", "COUNT(*)", "MAX(%s.V)", "MIN(%s.V)", "SUM(%s.V)"}

func (g *queryGen) binding() string {
	g.nextVar++
	return fmt.Sprintf("T%d", g.nextVar)
}

func (g *queryGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// genQuery builds the outermost query.
func (g *queryGen) genQuery() string {
	b := g.binding()
	table := g.pick(fuzzTables)
	where := g.genWhere(b, nil, 3)
	sql := fmt.Sprintf("SELECT %s.K, %s.V FROM %s %s", b, b, table, b)
	if where != "" {
		sql += " WHERE " + where
	}
	return sql
}

// genWhere builds 1-2 conjuncts, at most one of them nested.
func (g *queryGen) genWhere(binding string, outer []string, depth int) string {
	var conjs []string
	if g.rng.Intn(4) > 0 {
		conjs = append(conjs, g.genSimple(binding, outer))
	}
	if depth > 0 && g.rng.Intn(4) > 0 {
		conjs = append(conjs, g.genNested(binding, outer, depth))
	}
	return strings.Join(conjs, " AND ")
}

// genSimple builds a simple comparison; with outer bindings available it
// may produce a correlated join predicate.
func (g *queryGen) genSimple(binding string, outer []string) string {
	left := binding + "." + g.pick(fuzzCols)
	op := g.pick(fuzzOps)
	if len(outer) > 0 && g.rng.Intn(2) == 0 {
		return fmt.Sprintf("%s %s %s.%s", left, op, outer[g.rng.Intn(len(outer))], g.pick(fuzzCols))
	}
	return fmt.Sprintf("%s %s %d", left, op, g.rng.Intn(5))
}

// genNested builds a nested predicate of random kind.
func (g *queryGen) genNested(binding string, outer []string, depth int) string {
	inner := g.binding()
	table := g.pick(fuzzTables)
	visible := append(append([]string{}, outer...), binding)
	where := g.genWhere(inner, visible, depth-1)
	whereClause := ""
	if where != "" {
		whereClause = " WHERE " + where
	}
	switch g.rng.Intn(6) {
	case 0: // IN
		return fmt.Sprintf("%s.V IN (SELECT %s.V FROM %s %s%s)",
			binding, inner, table, inner, whereClause)
	case 5: // NOT IN (the anti-join extension)
		return fmt.Sprintf("%s.V NOT IN (SELECT %s.V FROM %s %s%s)",
			binding, inner, table, inner, whereClause)
	case 1: // EXISTS / NOT EXISTS
		neg := ""
		if g.rng.Intn(2) == 0 {
			neg = "NOT "
		}
		return fmt.Sprintf("%sEXISTS (SELECT %s.K FROM %s %s%s)",
			neg, inner, table, inner, whereClause)
	case 2: // quantified
		quant := "ANY"
		if g.rng.Intn(2) == 0 {
			quant = "ALL"
		}
		return fmt.Sprintf("%s.V %s %s (SELECT %s.V FROM %s %s%s)",
			binding, g.pick([]string{"<", ">", "<=", ">="}), quant, inner, table, inner, whereClause)
	default: // scalar aggregate
		agg := g.pick(fuzzAggs)
		if strings.Contains(agg, "%s") {
			agg = fmt.Sprintf(agg, inner)
		}
		return fmt.Sprintf("%s.V %s (SELECT %s FROM %s %s%s)",
			binding, g.pick([]string{"=", "<", ">"}), agg, table, inner, whereClause)
	}
}

func TestFuzzNestedQueriesAgree(t *testing.T) {
	const rounds = 500
	skipped := 0
	for i := range rounds {
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		db := fuzzDB(t, rng)
		g := &queryGen{rng: rng}
		sql := g.genQuery()

		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatalf("round %d: NI failed for %q: %v", i, sql, err)
		}
		tr, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("round %d: transform failed for %q: %v", i, sql, err)
		}
		if tr.FellBack {
			skipped++
		}
		// The paper's ANY/ALL rewrites are only "logically" equivalent:
		// over an empty set, ALL diverges by design (see README) — the
		// engine's rule compares nothing there.
		if d := diffNI(sql, tr, ni); d != "" {
			t.Fatalf("round %d: %q (fellback=%v): %s", i, sql, tr.FellBack, d)
		}
	}
	t.Logf("%d/%d rounds fell back to nested iteration", skipped, rounds)
	if skipped == rounds {
		t.Error("every query fell back; generator exercises nothing")
	}
}

// Regression for a bug the fuzzer found: merging an uncorrelated IN
// predicate (NEST-N-J) *inside* a COUNT block duplicated the counted rows
// via join multiplicity. The transformer must refuse the merge and fall
// back unless the merged column is a declared key.
func TestRegressionCountOverMergedIn(t *testing.T) {
	db := engine.New(8)
	rel := func(name string) *schema.Relation {
		return &schema.Relation{Name: name, Columns: []schema.Column{
			{Name: "K", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
		}}
	}
	for _, name := range []string{"RA", "RC"} {
		if err := db.CreateRelation(rel(name), 4); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("RA", storage.Tuple{value.NewInt(4), value.NewInt(3)}))
	// Two RC rows share V = 2: the IN-merge join would double-count.
	must(db.Insert("RC",
		storage.Tuple{value.NewInt(1), value.NewInt(2)},
		storage.Tuple{value.NewInt(0), value.NewInt(2)},
		storage.Tuple{value.NewInt(1), value.NewInt(2)},
	))
	must(db.Seal("RA"))
	must(db.Seal("RC"))

	sql := `
		SELECT K, V FROM RA
		WHERE V > (SELECT COUNT(*) FROM RC T2
		           WHERE T2.K = 1 AND T2.V IN (SELECT T3.V FROM RC T3 WHERE T3.K < 2))`
	ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.FellBack {
		t.Error("expected fallback for IN under COUNT without a key")
	}
	if sortedRows(tr) != sortedRows(ni) {
		t.Errorf("results diverge:\n  NI: %v\n  TR: %v", sortedRows(ni), sortedRows(tr))
	}
	// Sanity: COUNT counts the T2 rows whose V is in the set {2} — both
	// K=1 rows — so the predicate is 3 > 2 and the row qualifies.
	if sortedRows(ni) != "(4, 3)" {
		t.Errorf("ground truth = %v", sortedRows(ni))
	}
}

// With a declared key on the merged column the merge is multiplicity-safe
// and still happens.
func TestCountOverMergedInWithKeyStillTransforms(t *testing.T) {
	db := engine.New(8)
	if err := db.CreateRelation(&schema.Relation{Name: "RA", Columns: []schema.Column{
		{Name: "K", Type: value.KindInt}, {Name: "V", Type: value.KindInt},
	}}, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation(&schema.Relation{Name: "DIM", Columns: []schema.Column{
		{Name: "ID", Type: value.KindInt}, {Name: "W", Type: value.KindInt},
	}, Key: []string{"ID"}}, 4); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("RA",
		storage.Tuple{value.NewInt(1), value.NewInt(1)},
		storage.Tuple{value.NewInt(1), value.NewInt(3)},
		storage.Tuple{value.NewInt(2), value.NewInt(0)},
	))
	must(db.Insert("DIM",
		storage.Tuple{value.NewInt(1), value.NewInt(5)},
		storage.Tuple{value.NewInt(2), value.NewInt(0)},
	))
	must(db.Seal("RA"))
	must(db.Seal("DIM"))

	// The correlated COUNT block contains an uncorrelated IN over DIM.ID,
	// the declared key: merging cannot change multiplicity.
	sql := `
		SELECT K, V FROM RA
		WHERE V = (SELECT COUNT(T2.V) FROM RA T2
		           WHERE T2.K = RA.K AND T2.K IN (SELECT ID FROM DIM WHERE W > 1))`
	ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if sortedRows(tr) != sortedRows(ni) {
		t.Errorf("results diverge:\n  NI: %v\n  TR: %v", sortedRows(ni), sortedRows(tr))
	}
}

// A larger soak: bigger relations, more rounds. Skipped under -short.
func TestFuzzSoakLargeInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for i := range 60 {
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		db := engine.New(8)
		for _, name := range fuzzTables {
			rel := &schema.Relation{Name: name, Columns: []schema.Column{
				{Name: "K", Type: value.KindInt},
				{Name: "V", Type: value.KindInt},
				{Name: "W", Type: value.KindInt},
			}}
			if err := db.CreateRelation(rel, 4); err != nil {
				t.Fatal(err)
			}
			n := rng.Intn(200) + 50
			for range n {
				if err := db.Insert(name, storage.Tuple{
					value.NewInt(int64(rng.Intn(20))),
					value.NewInt(int64(rng.Intn(8))),
					value.NewInt(int64(rng.Intn(10))),
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Seal(name); err != nil {
				t.Fatal(err)
			}
		}
		g := &queryGen{rng: rng}
		sql := g.genQuery()
		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatalf("round %d: NI %q: %v", i, sql, err)
		}
		tr, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("round %d: TR %q: %v", i, sql, err)
		}
		if d := diffNI(sql, tr, ni); d != "" {
			t.Fatalf("round %d: %q diverged: %s", i, sql, d)
		}
	}
}

// The anti-join's three-valued semantics, differentially tested against
// nested iteration on instances with NULLs on both sides of NOT IN:
// a NULL membership value poisons non-matching rows (UNKNOWN), a NULL
// operand qualifies only against an empty relevant set.
func TestDifferentialNotInWithNulls(t *testing.T) {
	queries := []string{
		// Uncorrelated NOT IN.
		`SELECT K, V FROM RA WHERE V NOT IN (SELECT W FROM RC T2 WHERE T2.K < 3)`,
		// Correlated NOT IN.
		`SELECT K, V FROM RA
		 WHERE V NOT IN (SELECT W FROM RC T2 WHERE T2.K = RA.K)`,
		// NOT IN with a guaranteed-empty inner set: everything qualifies.
		`SELECT K, V FROM RA WHERE V NOT IN (SELECT W FROM RC T2 WHERE T2.K > 100)`,
	}
	for seed := range 15 {
		rng := rand.New(rand.NewSource(int64(11000 + seed)))
		db := engine.New(8)
		for _, name := range []string{"RA", "RC"} {
			rel := &schema.Relation{Name: name, Columns: []schema.Column{
				{Name: "K", Type: value.KindInt},
				{Name: "V", Type: value.KindInt},
				{Name: "W", Type: value.KindInt},
			}}
			if err := db.CreateRelation(rel, 2); err != nil {
				t.Fatal(err)
			}
			n := rng.Intn(12) + 1
			for range n {
				mk := func() value.Value {
					if rng.Intn(4) == 0 {
						return value.Null
					}
					return value.NewInt(int64(rng.Intn(5)))
				}
				if err := db.Insert(name, storage.Tuple{mk(), mk(), mk()}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Seal(name); err != nil {
				t.Fatal(err)
			}
		}
		for _, sql := range queries {
			ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
			if err != nil {
				t.Fatal(err)
			}
			if tr.FellBack {
				t.Fatalf("seed %d: %q fell back", seed, sql)
			}
			// Anti-joins are bag-exact: they filter the outer stream.
			if got, want := sortedRows(tr), sortedRows(ni); got != want {
				t.Fatalf("seed %d: %q\n  NI: %v\n  TR: %v", seed, sql, want, got)
			}
		}
	}
}

package engine_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Differential tests for the morsel-driven parallel executor: every query
// is run through nested iteration (ground truth), the sequential NEST-JA2
// pipeline, and the parallel NEST-JA2 pipeline. Parallelism may only
// reorder rows, so parallel-vs-sequential is a bag comparison; against
// nested iteration the set semantics of the transformation apply (Kim's
// Lemma 1), with ALL-quantifier queries excluded — engine.AgreementWithNI.
//
// ForceParallel bypasses the cost gate so the tiny generated instances
// still exercise the parallel operators, and VerifyParallel arms the
// engine's own oracle on top of the explicit comparisons here.

// parallelOpts enables 4-worker parallel plans with the oracle armed.
func parallelOpts(strategy engine.Strategy) engine.Options {
	return engine.Options{
		Strategy: strategy,
		Planner: planner.Options{
			Parallelism:   4,
			ForceParallel: true,
		},
		VerifyParallel: true,
	}
}

// usedParallel reports whether any plan note mentions a parallel operator.
func usedParallel(res *engine.Result) bool {
	for _, tr := range res.Trace {
		if strings.Contains(tr, "parallel hash") {
			return true
		}
	}
	return false
}

// TestParallelDifferentialFuzz runs the grammar fuzzer's generated queries
// through all three evaluation paths — well over the 200-query bar — and
// requires the parallel path to actually fire on a healthy fraction.
func TestParallelDifferentialFuzz(t *testing.T) {
	const rounds = 250
	parallelPlans := 0
	for i := range rounds {
		rng := rand.New(rand.NewSource(int64(31000 + i)))
		db := fuzzDB(t, rng)
		g := &queryGen{rng: rng}
		sql := g.genQuery()

		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatalf("round %d: NI failed for %q: %v", i, sql, err)
		}
		seq, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("round %d: sequential transform failed for %q: %v", i, sql, err)
		}
		par, err := db.Query(sql, parallelOpts(engine.TransformJA2))
		if err != nil {
			t.Fatalf("round %d: parallel transform failed for %q: %v", i, sql, err)
		}
		if usedParallel(par) {
			parallelPlans++
		}
		// Parallelism must not change multiplicities: bag equality against
		// the sequential plan, unconditionally.
		if d := storage.Diff(engine.AcrossRegimes, par.Rows, seq.Rows); d != "" {
			t.Fatalf("round %d: %q parallel != sequential: %s", i, sql, d)
		}
		if par.FellBack != seq.FellBack {
			t.Fatalf("round %d: %q fallback disagreement (seq=%v par=%v)", i, sql, seq.FellBack, par.FellBack)
		}
		if d := diffNI(sql, par, ni); d != "" {
			t.Fatalf("round %d: %q parallel != nested iteration (fellback=%v): %s", i, sql, par.FellBack, d)
		}
	}
	t.Logf("%d/%d rounds used parallel operators", parallelPlans, rounds)
	if parallelPlans == 0 {
		t.Error("no round produced a parallel plan; the test exercises nothing")
	}
}

// TestParallelDifferentialTypeJA sweeps the type-JA shape — the paper's
// COUNT-bug territory — on random PARTS/SUPPLY instances with duplicate
// outer keys, comparing all three paths per aggregate.
func TestParallelDifferentialTypeJA(t *testing.T) {
	aggs := []string{"COUNT(QUAN)", "COUNT(*)", "MAX(QUAN)", "SUM(QUAN)"}
	for seed := range 40 {
		rng := rand.New(rand.NewSource(int64(32000 + seed)))
		db := randomInstance(t, rng, 6)
		for _, agg := range aggs {
			sql := `SELECT PNUM, QOH FROM PARTS WHERE QOH = (SELECT ` + agg +
				` FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`
			ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := db.Query(sql, parallelOpts(engine.TransformJA2))
			if err != nil {
				t.Fatal(err)
			}
			// NEST-JA2 is duplicate-exact for type-JA: bags all around.
			if got, want := sortedRows(par), sortedRows(seq); got != want {
				t.Fatalf("seed %d agg %s: parallel != sequential\n  seq: %v\n  par: %v", seed, agg, want, got)
			}
			if got, want := sortedRows(par), sortedRows(ni); got != want {
				t.Fatalf("seed %d agg %s: parallel != NI\n  NI:  %v\n  par: %v", seed, agg, want, got)
			}
		}
	}
}

// TestParallelEmptySubqueryCount pins the COUNT-bug case under
// parallelism: outer rows whose correlated subquery is empty must compare
// against COUNT = 0 — a partition with zero matching inner tuples still
// emits the NULL-padded outer row, and COUNT(col) over it yields 0.
func TestParallelEmptySubqueryCount(t *testing.T) {
	db := engine.New(6)
	// Parts 8 and 9 have no SUPPLY rows at all; part 3 has rows that a
	// restriction can empty out. QOH = 0 rows must survive via COUNT = 0.
	loadTable(t, db, &schema.Relation{Name: "PARTS", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt},
		{Name: "QOH", Type: value.KindInt},
	}},
		storage.Tuple{value.NewInt(3), value.NewInt(2)},
		storage.Tuple{value.NewInt(8), value.NewInt(0)},
		storage.Tuple{value.NewInt(9), value.NewInt(0)},
		storage.Tuple{value.NewInt(10), value.NewInt(1)},
	)
	loadTable(t, db, &schema.Relation{Name: "SUPPLY", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt},
		{Name: "QUAN", Type: value.KindInt},
	}},
		storage.Tuple{value.NewInt(3), value.NewInt(4)},
		storage.Tuple{value.NewInt(3), value.NewInt(5)},
		storage.Tuple{value.NewInt(10), value.NewInt(6)},
	)
	for _, sql := range []string{
		`SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		`SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(*) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		// The restriction QUAN > 100 empties every group: only COUNT = 0 rows match.
		`SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 100)`,
	} {
		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatal(err)
		}
		opts := parallelOpts(engine.TransformJA2)
		opts.NoFallback = true
		par, err := db.Query(sql, opts)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if got, want := sortedRows(par), sortedRows(ni); got != want {
			t.Errorf("%q:\n  NI:  %v\n  par: %v", sql, want, got)
		}
	}
}

// TestParallelDuplicateOuterKeys pins section 5.4 under parallelism:
// duplicate outer join-column values must each come back (bag semantics),
// which requires the DISTINCT projection before the outer join and hash
// partitioning that keeps every copy of a key on one probe path.
func TestParallelDuplicateOuterKeys(t *testing.T) {
	db := engine.New(6)
	// PNUM 3 appears three times with different QOH; PNUM 8 twice with the
	// same QOH — the full row is a duplicate, and both copies must return.
	loadTable(t, db, &schema.Relation{Name: "PARTS", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt},
		{Name: "QOH", Type: value.KindInt},
	}},
		storage.Tuple{value.NewInt(3), value.NewInt(2)},
		storage.Tuple{value.NewInt(3), value.NewInt(0)},
		storage.Tuple{value.NewInt(3), value.NewInt(2)},
		storage.Tuple{value.NewInt(8), value.NewInt(0)},
		storage.Tuple{value.NewInt(8), value.NewInt(0)},
	)
	loadTable(t, db, &schema.Relation{Name: "SUPPLY", Columns: []schema.Column{
		{Name: "PNUM", Type: value.KindInt},
		{Name: "QUAN", Type: value.KindInt},
	}},
		storage.Tuple{value.NewInt(3), value.NewInt(7)},
		storage.Tuple{value.NewInt(3), value.NewInt(9)},
	)
	sql := `SELECT PNUM, QOH FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`
	ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := parallelOpts(engine.TransformJA2)
	opts.NoFallback = true
	par, err := db.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := "(3, 2) (3, 2) (8, 0) (8, 0)"
	if got := sortedRows(ni); got != want {
		t.Fatalf("ground truth drifted: %v", got)
	}
	if got := sortedRows(seq); got != want {
		t.Errorf("sequential NEST-JA2: got %v, want %v", got, want)
	}
	if got := sortedRows(par); got != want {
		t.Errorf("parallel NEST-JA2: got %v, want %v", got, want)
	}
}

// TestParallelOracleTraces makes sure the engine-level oracle is not
// vacuous: on a parallel query it must record both comparisons (bag
// against the sequential plan, set against nested iteration) in the
// trace, proving they actually ran.
func TestParallelOracleTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(33000))
	db := randomInstance(t, rng, 6)
	sql := `SELECT PNUM, QOH FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`
	opts := parallelOpts(engine.TransformJA2)
	opts.NoFallback = true
	par, err := db.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(par.Trace, "\n")
	if !strings.Contains(joined, "bag-equal to sequential plan") {
		t.Error("oracle did not record the sequential comparison")
	}
	if !strings.Contains(joined, "set-equal to nested iteration") {
		t.Error("oracle did not record the nested-iteration comparison")
	}
	if !usedParallel(par) {
		t.Error("query did not use parallel operators")
	}
}

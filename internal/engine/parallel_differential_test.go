package engine_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/value"
)

// Differential tests for the hash operators Parallelism places: every
// query is run through nested iteration (ground truth), the sequential
// NEST-JA2 pipeline, and NEST-JA2 with Parallelism, which hash-joins and
// hash-aggregates where the sequential plan sort-merges. Both run on the
// query's goroutine, but a hash aggregation emits its groups in first-seen
// order, so hash-vs-sequential is a bag comparison; against nested
// iteration the set semantics of the transformation apply (Kim's Lemma 1),
// with ALL-quantifier queries excluded — engine.AgreementWithNI.

// parallelOpts enables Parallelism's hash operators.
func parallelOpts(strategy engine.Strategy) engine.Options {
	return engine.Options{Strategy: strategy, Planner: planner.Options{Parallelism: 4}}
}

// mergeOpts forces every join of strategy's plan to sort-merge.
func mergeOpts(strategy engine.Strategy) engine.Options {
	return engine.Options{Strategy: strategy, NoFallback: true,
		Planner: planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge}}
}

// usedParallel reports whether par's plan places a hash operator that only
// Parallelism places, against seq, the same query planned without it: a
// hash aggregation, or a hash join in a block where seq merge-joins. A
// hash join seq places too, in nested loops' slot, does not count.
func usedParallel(par, seq *engine.Result) bool {
	return slices.ContainsFunc(par.Trace, func(e trace.Event) bool {
		return e.Kind == trace.HashGroup || e.Kind == trace.HashJoin && slices.ContainsFunc(seq.Trace, func(s trace.Event) bool {
			return s.Kind == trace.MergeJoin && s.Label == e.Label
		})
	})
}

// TestParallelDifferentialFuzz runs the grammar fuzzer's generated queries
// through all three evaluation paths — well over the 200-query bar — and,
// where the query transforms, through the plan whose every join
// sort-merges. Against that plan the Parallelism one must place a hash
// operator on at least minHashPlans rounds (52 of the 184 that transform
// at these seeds), so the hash-vs-merge comparison is not vacuous.
func TestParallelDifferentialFuzz(t *testing.T) {
	const rounds, minHashPlans = 250, 50
	parallelPlans, transformed := 0, 0
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
		merge, err := db.Query(sql, mergeOpts(engine.TransformJA2))
		if errors.Is(err, transform.ErrNotTransformable) {
			continue
		}
		if err != nil {
			t.Fatalf("round %d: sort-merge transform failed for %q: %v", i, sql, err)
		}
		transformed++
		if d := storage.Diff(engine.AcrossRegimes, par.Rows, merge.Rows); d != "" {
			t.Fatalf("round %d: %q parallel != sort-merge: %s", i, sql, d)
		}
		if usedParallel(par, merge) {
			parallelPlans++
		}
	}
	t.Logf("%d of the %d rounds that transform placed a hash operator where the other plan sort-merges", parallelPlans, transformed)
	if parallelPlans < minHashPlans {
		t.Errorf("%d rounds placed a hash operator the sort-merge plan does not, want at least %d: the hash-vs-merge comparison exercises too little",
			parallelPlans, minHashPlans)
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
		seq, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
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
		if d := storage.Diff(engine.AcrossRegimes, par.Rows, seq.Rows); d != "" {
			t.Errorf("%q: parallel != sequential: %s", sql, d)
		}
		if d := diffNI(sql, par, ni); d != "" {
			t.Errorf("%q: parallel != nested iteration: %s", sql, d)
		}
	}
}

// TestParallelDuplicateOuterKeys pins section 5.4 as a hash-vs-merge
// differential: duplicate outer join-column values must each come back
// (bag semantics), from the sort-merge plan and from the hash plan
// Parallelism places alike, which requires the DISTINCT projection before
// the outer join and a hash probe that meets every copy of a key.
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
	merge, err := db.Query(sql, mergeOpts(engine.TransformJA2))
	if err != nil {
		t.Fatal(err)
	}
	opts := parallelOpts(engine.TransformJA2)
	opts.NoFallback = true
	hash, err := db.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := "(3, 2) (3, 2) (8, 0) (8, 0)"
	if got := sortedRows(ni); got != want {
		t.Fatalf("ground truth drifted: %v", got)
	}
	if got := sortedRows(merge); got != want {
		t.Errorf("sort-merge NEST-JA2: got %v, want %v", got, want)
	}
	if got := sortedRows(hash); got != want {
		t.Errorf("hash NEST-JA2: got %v, want %v", got, want)
	}
	if d := storage.Diff(engine.AcrossRegimes, hash.Rows, merge.Rows); d != "" {
		t.Errorf("hash != sort-merge: %s", d)
	}
	if d := diffNI(sql, hash, ni); d != "" {
		t.Errorf("hash != nested iteration: %s", d)
	}
	if hasKind(merge, trace.HashJoin) || hasKind(merge, trace.HashGroup) || !hasKind(merge, trace.MergeJoin) {
		t.Errorf("the forced-merge plan does not sort-merge:\n%s", traceText(merge))
	}
	if !usedParallel(hash, merge) || hasKind(hash, trace.MergeJoin) {
		t.Errorf("the Parallelism plan does not hash where the other sort-merges:\n%s", traceText(hash))
	}
}

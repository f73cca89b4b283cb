package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestAnalyzeCollectsStats(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	if db.Statistics() != nil {
		t.Error("stats present before Analyze")
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	st := db.Statistics()
	if st == nil {
		t.Fatal("no stats after Analyze")
	}
	rs := st.Relation("SUPPLY")
	if rs == nil || rs.Tuples != 5 {
		t.Fatalf("SUPPLY stats = %+v", rs)
	}
	if rs.Distinct["PNUM"] != 3 {
		t.Errorf("SUPPLY PNUM distinct = %d, want 3", rs.Distinct["PNUM"])
	}
}

// Results must be identical with and without statistics — stats only steer
// join-method choices.
func TestStatsDoNotChangeResults(t *testing.T) {
	queries := []string{
		workload.KiesslingQ2,
		`SELECT PNUM FROM PARTS
		 WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
	}
	for seed := range 6 {
		rng := rand.New(rand.NewSource(int64(2000 + seed)))
		db := randomInstance(t, rng, 8)
		sql := `SELECT PNUM, QOH FROM PARTS
		        WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`
		before, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
		after, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatal(err)
		}
		if sortedRows(before) != sortedRows(after) {
			t.Errorf("seed %d: stats changed results:\n  before %v\n  after  %v",
				seed, sortedRows(before), sortedRows(after))
		}
	}
	// Fixed fixtures too.
	db := newDB(t, 8, workload.LoadKiessling)
	for _, sql := range queries {
		before := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
		after := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
		if sortedRows(before) != sortedRows(after) {
			t.Errorf("%q: stats changed results", sql)
		}
	}
}

// With statistics, the selective filter shrinks the estimate enough that
// the planner notes reflect informed choices (smoke check that the stats
// path is exercised).
func TestStatsInfluencePlanNotes(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	res := query(t, db, workload.KiesslingQ2, engine.Options{Strategy: engine.TransformJA2})
	if !hasKind(res, trace.HashJoin) && !hasKind(res, trace.MergeJoin) && !hasKind(res, trace.NestedLoops) {
		t.Errorf("trace lacks join decisions:\n%s", traceText(res))
	}
}

package engine_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// bigDB loads a relation large enough that an index scan beats a full
// scan for a selective predicate.
func bigDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(8)
	if err := db.CreateRelation(&schema.Relation{Name: "R", Columns: []schema.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "V", Type: value.KindInt},
	}}, 5); err != nil {
		t.Fatal(err)
	}
	for k := range 500 {
		if err := db.Insert("R", storage.Tuple{
			value.NewInt(int64(k % 100)),
			value.NewInt(int64(k)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Seal("R"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestIndexScanUsedAndCheaper(t *testing.T) {
	sql := "SELECT K, V FROM R WHERE K = 7 ORDER BY V"
	db := bigDB(t)
	noIdx := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})

	if err := db.CreateIndex("R", "K"); err != nil {
		t.Fatal(err)
	}
	withIdx := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
	if sortedRows(noIdx) != sortedRows(withIdx) {
		t.Fatalf("results differ:\n  %v\n  %v", sortedRows(noIdx), sortedRows(withIdx))
	}
	if len(withIdx.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(withIdx.Rows))
	}
	if !slices.ContainsFunc(withIdx.Trace, func(e trace.Event) bool {
		return e.Kind == trace.IndexScan && e.Cols[0] == exec.ColID{Table: "R", Column: "K"}
	}) {
		t.Errorf("index scan not chosen:\n%s", traceText(withIdx))
	}
	if withIdx.Stats.Total() >= noIdx.Stats.Total() {
		t.Errorf("index scan I/O %v not below seq scan %v", withIdx.Stats, noIdx.Stats)
	}
}

func TestIndexNotUsedForUnselectivePredicate(t *testing.T) {
	db := bigDB(t)
	if err := db.CreateIndex("R", "K"); err != nil {
		t.Fatal(err)
	}
	// K >= 0 matches everything: a full scan is cheaper.
	res := query(t, db, "SELECT K FROM R WHERE K >= 0", engine.Options{Strategy: engine.TransformJA2})
	if hasKind(res, trace.IndexScan) {
		t.Errorf("index scan chosen for an unselective predicate:\n%s", traceText(res))
	}
	if len(res.Rows) != 500 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestIndexInvalidatedByInsert(t *testing.T) {
	db := bigDB(t)
	if err := db.CreateIndex("R", "K"); err != nil {
		t.Fatal(err)
	}
	if db.Indexes().On("R", "K") == nil {
		t.Fatal("index missing")
	}
	if err := db.Insert("R", storage.Tuple{value.NewInt(7), value.NewInt(999)}); err != nil {
		t.Fatal(err)
	}
	if db.Indexes().On("R", "K") != nil {
		t.Error("index survived an insert")
	}
	if err := db.Seal("R"); err != nil {
		t.Fatal(err)
	}
	// Correctness after invalidation: the new row appears.
	res := query(t, db, "SELECT V FROM R WHERE K = 7 ORDER BY V DESC", engine.Options{})
	if res.Rows[0][0].Int() != 999 {
		t.Errorf("first row = %v", res.Rows[0])
	}
}

func TestCreateIndexErrors(t *testing.T) {
	db := bigDB(t)
	if err := db.CreateIndex("NOPE", "K"); err == nil {
		t.Error("unknown relation")
	}
	if err := db.CreateIndex("R", "NOPE"); err == nil {
		t.Error("unknown column")
	}
	if err := db.CreateIndex("R", "K"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("R", "K"); err == nil {
		t.Error("duplicate index")
	}
}

// Differential: nested queries with indexes enabled still agree with
// nested iteration across random instances (the access path must not
// change semantics).
func TestDifferentialWithIndexes(t *testing.T) {
	sql := `
		SELECT PNUM, QOH FROM PARTS
		WHERE QOH > 0 AND
		      QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM AND SDAY < 7)`
	for seed := range 8 {
		rng := rand.New(rand.NewSource(int64(6000 + seed)))
		db := randomInstance(t, rng, 6)
		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex("PARTS", "QOH"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex("SUPPLY", "SDAY"); err != nil {
			t.Fatal(err)
		}
		tr, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		if sortedRows(tr) != sortedRows(ni) {
			t.Errorf("seed %d: indexes changed results:\n  NI: %v\n  TR: %v",
				seed, sortedRows(ni), sortedRows(tr))
		}
	}
}

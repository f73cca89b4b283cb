package metamorph

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestStreamedTempsMatchMaterialized: NEST-JA2's COUNT-path TEMP2, the
// restricted inner relation, is read once and streams into TEMP3's outer
// join by default; under AsPaper every temp is materialized. Both plans
// must return the same rows, in the same order where the query orders
// them, sequentially, on two workers and with every buffer forced
// through spill runs. The queries are the four ja shapes at a tenth of
// ja_seq's size, with NULL join keys on both sides and COUNT = 0 groups
// (outer keys RJ lacks, and one whose every RJ row fails the
// restriction), and every query of the metamorph corpus: the short
// seed's pairs and the golden repros.
func TestStreamedTempsMatchMaterialized(t *testing.T) {
	regimes := []string{RegimeSeq, RegimePar, RegimeTight}
	streamed := 0
	check := func(db *engine.DB, sql string) {
		t.Helper()
		for _, regime := range regimes {
			opts := regimeOptions(regime, engine.TransformJA2)
			got, err := db.Query(sql, opts)
			opts.Planner.AsPaper = true
			want, werr := db.Query(sql, opts)
			if err != nil || werr != nil {
				t.Errorf("%s: streamed: %v, materialized: %v\n  query: %s", regime, err, werr, sql)
				continue
			}
			if slices.ContainsFunc(want.Trace, isStreamed) {
				t.Errorf("%s: AsPaper streamed a temp\n  query: %s", regime, sql)
			}
			if slices.ContainsFunc(got.Trace, isStreamed) {
				streamed++
			}
			d := storage.Diff(engine.AcrossRegimes, got.Rows, want.Rows)
			if strings.Contains(strings.ToUpper(sql), "ORDER BY") {
				d = storage.DiffCanon(rowTexts(got.Rows), rowTexts(want.Rows))
			}
			if d != "" {
				t.Errorf("%s: streamed vs materialized: %s\n  query: %s", regime, d, sql)
			}
		}
	}

	t.Run("ja-shapes", func(t *testing.T) {
		streamed = 0
		cfg := workload.SyntheticConfig{Name: "ja", OuterTuples: 200, InnerTuples: 400,
			OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 20, Selectivity: 0.5, MatchFraction: 0.5, Seed: 1}
		db := engine.New(32)
		if err := workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg); err != nil {
			t.Fatal(err)
		}
		// JC 900 and 901 have no RJ rows; every RJ row of JC 902 fails
		// RJ.FILT < 50. A VAL of 0 puts each COUNT = 0 group in the result.
		for _, sql := range []string{
			"INSERT INTO RI VALUES (NULL, 0, 1), (NULL, 1, 2), (900, 0, 3), (901, 0, 4), (902, 0, 5), (902, 1, 6)",
			"INSERT INTO RJ VALUES (NULL, 0, 1), (NULL, 1, 2), (902, 0, 98), (902, 1, 99)",
		} {
			if _, err := db.Exec(sql, engine.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.EnableSpill(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
		count := workload.TypeJAQuery(cfg)
		for _, sql := range []string{workload.TypeNQuery(cfg), workload.TypeJQuery(cfg), count,
			workload.TypeJAMaxQuery(cfg), count + " ORDER BY JC"} {
			check(db, sql)
		}
		if streamed != 2*len(regimes) {
			t.Errorf("the COUNT shape streamed TEMP2 in %d of %d runs", streamed, 2*len(regimes))
		}
	})

	t.Run("corpus", func(t *testing.T) {
		streamed = 0
		scenarios := corpus(t)
		db := engine.New(64)
		if err := db.EnableSpill(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
		for _, s := range scenarios {
			if err := load(db, s); err != nil {
				t.Fatal(err)
			}
			for _, p := range s.Pairs {
				for _, q := range p.Queries {
					check(db, q.SQL)
				}
			}
			unload(db, s)
		}
		if streamed == 0 {
			t.Error("no corpus query streamed a temp")
		}
		t.Logf("%d scenarios, %d runs streamed a temp", len(scenarios), streamed)
	})
}

// corpus is the metamorph corpus: the short seed's scenarios and the
// golden repros, each of those with its one pair.
func corpus(t *testing.T) []*Scenario {
	t.Helper()
	var scenarios []*Scenario
	gen := NewGenerator(Config{Seed: shortSeed})
	for id := range gen.Scenarios() {
		scenarios = append(scenarios, gen.Scenario(id))
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.sql"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		rep, err := LoadRepro(path)
		if err != nil {
			t.Fatal(err)
		}
		rep.Scenario.Pairs = []Pair{rep.Pair()}
		scenarios = append(scenarios, rep.Scenario)
	}
	return scenarios
}

func isStreamed(e trace.Event) bool { return e.Kind == trace.Streamed }

// rowTexts prints rows in their order, for an order-sensitive DiffCanon.
func rowTexts(rows []storage.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

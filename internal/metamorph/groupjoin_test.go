package metamorph

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/workload"
)

// TestGroupJoinMatchesSortMerge: a grouped temp join over a resident
// DISTINCT TEMP1 plans as one group join by default, and as the merge
// join and GroupAgg it replaces when the temp join is forced to merge.
// Both plans must return the same rows, in the same order where the
// query orders them, over the four ja shapes at a tenth of ja_seq's size
// with NULL join keys on both sides and COUNT = 0 groups, correlated
// under = and under <=>, through COUNT(*), on two columns, and with an
// empty TEMP1 or an empty inner side; over every query of the metamorph
// corpus; and over grouped blocks written against TEMP1 directly, whose
// groups the final result shows as they are: COUNT(*) over ⟕ (an
// unmatched group counts its one NULL-padded row), COUNT and MAX over ⋈
// (an unmatched group is dropped), HAVING and ORDER BY.
func TestGroupJoinMatchesSortMerge(t *testing.T) {
	merge := planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge}
	grouped := 0
	agree := func(sql string, got, want []storage.Tuple) {
		t.Helper()
		d := storage.Diff(engine.AcrossRegimes, got, want)
		if strings.Contains(strings.ToUpper(sql), "ORDER BY") {
			d = storage.DiffCanon(rowTexts(got), rowTexts(want))
		}
		if d != "" {
			t.Errorf("group join vs sort-merge: %s\n  query: %s", d, sql)
		}
	}
	check := func(db *engine.DB, sql string) {
		t.Helper()
		opts := regimeOptions(RegimeSeq, engine.TransformJA2)
		got, err := db.Query(sql, opts)
		opts.Planner = merge
		want, werr := db.Query(sql, opts)
		if err != nil || werr != nil {
			t.Errorf("group join: %v, sort-merge: %v\n  query: %s", err, werr, sql)
			return
		}
		if slices.ContainsFunc(want.Trace, isGroupJoin) {
			t.Errorf("a forced merge join group-joined\n  query: %s", sql)
		}
		if slices.ContainsFunc(got.Trace, isGroupJoin) {
			grouped++
		}
		agree(sql, got.Rows, want.Rows)
	}

	cfg := workload.SyntheticConfig{Name: "ja", OuterTuples: 200, InnerTuples: 400,
		OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 20, Selectivity: 0.5, MatchFraction: 0.5, Seed: 1}
	jaDB := func(t *testing.T) *engine.DB {
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
		return db
	}

	t.Run("ja-shapes", func(t *testing.T) {
		grouped = 0
		db := jaDB(t)
		count, noRight, noLeft := workload.TypeJAQuery(cfg), cfg, cfg
		noRight.MatchFraction, noLeft.Selectivity = 0, 0
		queries := []string{workload.TypeNQuery(cfg), workload.TypeJQuery(cfg), count, workload.TypeJAMaxQuery(cfg),
			count + " ORDER BY JC",
			strings.Replace(count, "RJ.JC = RI.JC", "RJ.JC <=> RI.JC", 1),
			strings.Replace(count, "COUNT(VAL)", "COUNT(*)", 1),
			strings.Replace(count, "RJ.JC = RI.JC", "RJ.JC = RI.JC AND RJ.VAL = RI.VAL", 1),
			workload.TypeJAQuery(noRight), workload.TypeJAMaxQuery(noRight),
			workload.TypeJAQuery(noLeft), workload.TypeJAMaxQuery(noLeft)}
		for _, sql := range queries {
			check(db, sql)
		}
		if grouped != len(queries)-2 { // type-N and type-J have no grouped temp
			t.Errorf("%d of the %d grouped ja shapes group-joined", grouped, len(queries)-2)
		}
	})

	t.Run("corpus", func(t *testing.T) {
		grouped = 0
		scenarios := corpus(t)
		db := engine.New(64)
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
		if grouped == 0 {
			t.Error("no corpus query group-joined")
		}
		t.Logf("%d scenarios, %d queries group-joined", len(scenarios), grouped)
	})

	// Through NEST-JA2 a grouped temp is read only by a join on its key,
	// which hides what a group join does with unmatched groups in all
	// but COUNT(col). Blocks written against TEMP1 show every group.
	t.Run("grouped-blocks", func(t *testing.T) {
		grouped = 0
		db := jaDB(t)
		parse := func(cat *schema.Catalog, sql string) *ast.QueryBlock {
			qb, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := schema.Resolve(cat, qb); err != nil {
				t.Fatal(err)
			}
			return qb
		}
		ri, _ := db.Catalog().Lookup("RI")
		rj, _ := db.Catalog().Lookup("RJ")
		run := func(def, sql string, opts planner.Options) ([]storage.Tuple, []trace.Event) {
			defQB, temp1 := parse(db.Catalog(), def), &schema.Relation{Name: "TEMP1"}
			for _, sel := range defQB.Select {
				temp1.Columns = append(temp1.Columns, ri.Columns[ri.ColumnIndex(sel.Col.Column)])
			}
			withTemp := schema.NewCatalog()
			for _, r := range []*schema.Relation{ri, rj, temp1} {
				if err := withTemp.Define(r); err != nil {
					t.Fatal(err)
				}
			}
			res := &transform.Result{Temps: []transform.TempTable{{Name: "TEMP1", Rel: temp1, Def: defQB}},
				Query: parse(withTemp, sql)}
			pl := planner.New(db.Catalog(), db.Store(), opts)
			rows, _, err := pl.Run(res)
			if err != nil {
				t.Fatalf("%v\n  query: %s", err, sql)
			}
			return rows, pl.Trace
		}
		const (
			keys    = "SELECT DISTINCT RI.JC FROM RI WHERE RI.FILT < 50"
			noKeys  = "SELECT DISTINCT RI.JC FROM RI WHERE RI.FILT < 0"
			twoKeys = "SELECT DISTINCT RI.JC, RI.VAL FROM RI"
		)
		for _, c := range []struct{ def, sql string }{
			{keys, "SELECT TEMP1.JC, COUNT(*) AS N FROM TEMP1, RJ WHERE TEMP1.JC =+ RJ.JC GROUP BY TEMP1.JC"},
			{keys, "SELECT TEMP1.JC, COUNT(*) AS N FROM TEMP1, RJ WHERE TEMP1.JC <=>+ RJ.JC AND RJ.FILT < 50 GROUP BY TEMP1.JC"},
			{keys, "SELECT TEMP1.JC, COUNT(RJ.VAL) AS N, MAX(RJ.VAL) AS M FROM TEMP1, RJ WHERE TEMP1.JC = RJ.JC AND RJ.FILT < 50 GROUP BY TEMP1.JC"},
			{keys, "SELECT TEMP1.JC, MAX(RJ.VAL) AS M FROM TEMP1, RJ WHERE TEMP1.JC <=> RJ.JC AND RJ.FILT < 0 GROUP BY TEMP1.JC"},
			{keys, "SELECT TEMP1.JC, COUNT(*) AS N FROM TEMP1, RJ WHERE TEMP1.JC =+ RJ.JC AND RJ.FILT < 0 GROUP BY TEMP1.JC"},
			{noKeys, "SELECT TEMP1.JC, COUNT(*) AS N FROM TEMP1, RJ WHERE TEMP1.JC =+ RJ.JC GROUP BY TEMP1.JC"},
			{keys, "SELECT TEMP1.JC, COUNT(*) AS N FROM TEMP1, RJ WHERE TEMP1.JC =+ RJ.JC GROUP BY TEMP1.JC HAVING N >= 20"},
			{keys, "SELECT TEMP1.JC, COUNT(*) AS N FROM TEMP1, RJ WHERE TEMP1.JC =+ RJ.JC GROUP BY TEMP1.JC ORDER BY N DESC, JC"},
			{twoKeys, "SELECT TEMP1.JC, TEMP1.VAL, COUNT(*) AS N FROM TEMP1, RJ WHERE TEMP1.JC =+ RJ.JC AND TEMP1.VAL =+ RJ.VAL GROUP BY TEMP1.JC, TEMP1.VAL"},
			{twoKeys, "SELECT TEMP1.VAL, TEMP1.JC, MAX(RJ.FILT) AS M FROM TEMP1, RJ WHERE RJ.VAL = TEMP1.VAL AND TEMP1.JC <=> RJ.JC GROUP BY TEMP1.VAL, TEMP1.JC"},
		} {
			got, notes := run(c.def, c.sql, planner.Options{})
			want, mergeNotes := run(c.def, c.sql, merge)
			if !slices.ContainsFunc(notes, isGroupJoin) || slices.ContainsFunc(mergeNotes, isGroupJoin) {
				t.Errorf("group join by default %v, under a forced merge join %v; want true and false\n  query: %s",
					slices.ContainsFunc(notes, isGroupJoin), slices.ContainsFunc(mergeNotes, isGroupJoin), c.sql)
			}
			agree(c.sql, got, want)
		}
	})
}

func isGroupJoin(e trace.Event) bool { return e.Kind == trace.GroupJoin }

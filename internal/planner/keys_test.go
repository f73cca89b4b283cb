package planner_test

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/value"
	"repro/internal/workload"
)

// The conjunct-permutation relation (after Lyu et al.'s inner-join oracle,
// PAPERS.md): the order in which a block's WHERE conjuncts are written
// decides nothing. Every permutation of every transformed block must return
// the same bag at the same page-I/O count through the same plan — in
// particular the same key pairs in the same order — and that bag must hold
// the rows nested iteration finds.

// nullKeyedDB is the synthetic RI/RJ pair at a small size with NULL join
// columns on both sides and outer rows whose correlated COUNT is 0: the
// instance on which <=> and = differ.
func nullKeyedDB(t *testing.T) *workload.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	rows := func(n int) []storage.Tuple {
		out := make([]storage.Tuple, n)
		for k := range out {
			jc := value.NewInt(int64(rng.Intn(12)))
			if rng.Intn(6) == 0 {
				jc = value.Null
			}
			out[k] = storage.Tuple{jc, value.NewInt(int64(rng.Intn(3))), value.NewInt(int64(k * 7 % 100))}
		}
		return out
	}
	cols := []schema.Column{{Name: "JC", Type: value.KindInt}, {Name: "VAL", Type: value.KindInt}, {Name: "FILT", Type: value.KindInt}}
	db := workload.NewDB(8)
	if err := db.Load(&schema.Relation{Name: workload.OuterRelationName, Columns: cols}, 4, rows(90)); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(&schema.Relation{Name: workload.InnerRelationName, Columns: cols}, 4, rows(60)); err != nil {
		t.Fatal(err)
	}
	return db
}

// permute reorders conjs into its k-th permutation (k taken modulo n!).
func permute(conjs []ast.Predicate, k int) {
	for n := len(conjs); n > 1; n-- {
		j := k % n
		k /= n
		conjs[n-1], conjs[j] = conjs[j], conjs[n-1]
	}
}

type planOutcome struct {
	rows  []storage.Tuple
	bag   string
	io    int64
	notes string
}

// runPermuted transforms sql on a fresh database and plans it with every
// block's conjuncts in their k-th permutation, after mutate (nil: none)
// has had its way with the transformed query.
func runPermuted(t *testing.T, mk func(*testing.T) *workload.DB, sql string, k int, mutate func(*transform.Result)) planOutcome {
	t.Helper()
	db := mk(t)
	qb := sqlparser.MustParse(sql)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	res, err := transform.New(db.Cat, transform.JA2).Transform(qb)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(res)
	}
	for _, temp := range res.Temps {
		permute(temp.Def.Where, k)
	}
	permute(res.Query.Where, k)
	pl := planner.New(db.Cat, db.Store, planner.Options{})
	before := db.Store.Stats()
	rows, _, err := pl.Run(res)
	if err != nil {
		t.Fatalf("permutation %d: %v\nnotes:\n%s", k, err, notesText(pl.Trace))
	}
	return planOutcome{rows: rows, bag: rowStrs(rows), io: db.Store.Stats().Sub(before).Total(), notes: notesText(pl.Trace)}
}

// nestedIteration is the ground truth.
func nestedIteration(t *testing.T, db *workload.DB, sql string) []storage.Tuple {
	t.Helper()
	qb := sqlparser.MustParse(sql)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	ev := exec.NewEvaluator(db.Cat, db.Store)
	defer ev.Close()
	rows, _, err := ev.EvalQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// permutationViolations runs the relation over six permutations and
// reports what moved.
func permutationViolations(t *testing.T, mk func(*testing.T) *workload.DB, sql string, mutate func(*transform.Result)) []string {
	t.Helper()
	var out []string
	base := runPermuted(t, mk, sql, 0, mutate)
	if d := storage.Diff(storage.AgreeSet, base.rows, nestedIteration(t, mk(t), sql)); d != "" {
		out = append(out, "rows differ from nested iteration: "+d)
	}
	for k := 1; k < 6; k++ {
		switch o := runPermuted(t, mk, sql, k, mutate); {
		case o.bag != base.bag:
			out = append(out, "result bag moved:\n  "+base.bag+"\n  "+o.bag)
		case o.io != base.io:
			out = append(out, "page I/O moved")
		case o.notes != base.notes:
			out = append(out, "plan moved:\n"+base.notes+"\n--- versus ---\n"+o.notes)
		}
	}
	return out
}

var permutationCases = []struct {
	name string
	mk   func(*testing.T) *workload.DB
	sql  string
}{
	{"type-N", nullKeyedDB, workload.TypeNQuery(workload.SyntheticConfig{Selectivity: 0.5, MatchFraction: 0.5})},
	{"type-J", nullKeyedDB, workload.TypeJQuery(workload.SyntheticConfig{Selectivity: 0.5, MatchFraction: 0.5})},
	{"type-JA-COUNT", nullKeyedDB, workload.TypeJAQuery(workload.SyntheticConfig{Selectivity: 0.5, MatchFraction: 0.5})},
	{"type-JA-MAX", nullKeyedDB, workload.TypeJAMaxQuery(workload.SyntheticConfig{Selectivity: 0.5, MatchFraction: 0.5})},
	{"Q2-COUNT-bug", func(t *testing.T) *workload.DB { return kiessling(t, 8) }, workload.KiesslingQ2},
}

func TestConjunctPermutationRelation(t *testing.T) {
	for _, c := range permutationCases {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range permutationViolations(t, c.mk, c.sql, nil) {
				t.Error(v)
			}
		})
	}
}

// The relation's teeth: a NEST-JA2 whose back-join forgets the second key
// pair's NULL rule (TEMP3.JC <=> RI.JC read as =) loses the NULL-keyed
// outer rows whose COUNT is 0, and must be caught.
func TestConjunctPermutationCatchesNullRuleMutant(t *testing.T) {
	dropped := 0
	mutant := func(res *transform.Result) {
		for _, c := range res.Query.Where {
			if cmp, ok := c.(*ast.Comparison); ok && cmp.Op == value.OpEqNull {
				cmp.Op = value.OpEq
				dropped++
			}
		}
	}
	c := permutationCases[2]
	if vs := permutationViolations(t, c.mk, c.sql, mutant); len(vs) == 0 {
		t.Error("the mutant passed: the relation cannot tell <=> from = in the back-join")
	}
	if dropped == 0 {
		t.Fatal("the mutant found no <=> to drop")
	}
}

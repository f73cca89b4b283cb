package metamorph

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestMetamorphQuantifiedJoins is the quantified-join class's gate: every
// correlated EXISTS, NOT EXISTS, x θ ANY and NOT IN it draws — keyed on K
// or G by = or <=>, with or without a second, range correlation conjunct —
// over tables with NULL keys on both sides and empty inner relations is
// held bag-equal to nested iteration by the runner in each regime: the
// default plan (one keyed semi-join or anti-join), the paper's (section
// 8's rewrites), the forced-spill one (sort-merged, spilled) and the
// parallel one. The class is counted: every form, both key operators, the
// range conjunct, NULL keys and empty inners must occur, and every default
// plan must decide its predicate in a quantified join.
func TestMetamorphQuantifiedJoins(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed + 3, Scenarios: 12, PairsPerScenario: 12})
	r, err := NewRunner(RunnerConfig{
		Parallel:    true,
		TightMemory: true,
		SpillDir:    filepath.Join(t.TempDir(), "spill"),
		Shrink:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := map[string]int{}
	var vs []Violation
	for id := 0; id < gen.Scenarios(); id++ {
		s := gen.QuantifiedScenario(id)
		if id%4 == 3 { // an empty inner relation in every fourth scenario
			s.Tables[1].Rows = nil
		}
		a, b := s.Tables[0], s.Tables[1]
		if len(b.Rows) == 0 {
			seen["empty inner"]++
		}
		if nullKey(a.Rows, 1) && nullKey(b.Rows, 1) {
			seen["NULL keys on both sides"]++
		}
		db := engine.New(64)
		if err := load(db, s); err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Pairs {
			seen[p.Class]++
			sql := p.Queries[0].SQL
			if strings.Contains(sql, "<=>") {
				seen["<=>"]++
			}
			if strings.Contains(sql, "B.W <") || strings.Contains(sql, "B.W >") {
				seen["range conjunct"]++
			}
			res, err := db.Query(sql, regimeOptions(RegimeSeq, engine.TransformJA2))
			if err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(res.Trace, quantifiedJoin) {
				seen["decided by a quantified join"]++
			}
		}
		out, err := r.RunScenario(s)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		vs = append(vs, out...)
	}
	reportViolations(t, vs)
	pairs := gen.Scenarios() * gen.cfg.PairsPerScenario
	st := r.Stats()
	if st.Quantified != 2*pairs {
		t.Errorf("%d queries held bag-equal to nested iteration, want %d", st.Quantified, 2*pairs)
	}
	if n := seen["decided by a quantified join"]; n != pairs {
		t.Errorf("%d of %d default plans decided their predicate in a quantified join", n, pairs)
	}
	for _, k := range []string{"quantified/EXISTS", "quantified/NOT EXISTS", "quantified/ANY", "quantified/NOT IN",
		"<=>", "range conjunct", "empty inner", "NULL keys on both sides"} {
		if seen[k] == 0 {
			t.Errorf("the class drew no %s", k)
		}
	}
	t.Logf("pairs=%d queries=%d quantified=%d seen=%v", st.Pairs, st.Queries, st.Quantified, seen)
}

// nullKey reports whether some row holds NULL in column c.
func nullKey(rows []storage.Tuple, c int) bool {
	return slices.ContainsFunc(rows, func(r storage.Tuple) bool { return r[c].IsNull() })
}

func quantifiedJoin(e trace.Event) bool {
	return (e.Kind == trace.HashJoin || e.Kind == trace.MergeJoin) && e.Text != ""
}

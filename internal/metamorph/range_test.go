package metamorph

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestMetamorphRangeCorrelation is the range class's gate, the teeth for
// the paper's second bug: type-JA predicates whose inner block is
// correlated by <, <=, >, >= or !=, over COUNT(*), COUNT(col), MIN, MAX,
// SUM and AVG, on tables with NULL keys and empty inner relations. Under
// NEST-JA2 every query is transformed, none falls back, and each is held
// bag-equal to nested iteration in every regime: sequential, parallel,
// networked, forced-spill and the paper's plan. The class is counted:
// every operator and every aggregate must be drawn. And the class alone
// catches Kim's NEST-JA, which joins the inner block's per-key groups to
// the outer relation with the original operator, on an aggregate that is
// not COUNT — the second bug, not the COUNT bug.
func TestMetamorphRangeCorrelation(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed + 4, Scenarios: 10, PairsPerScenario: 12})
	r, err := NewRunner(RunnerConfig{
		Parallel:    true,
		Network:     true,
		TightMemory: true,
		SpillDir:    filepath.Join(t.TempDir(), "spill"),
		Shrink:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	kim, err := NewRunner(RunnerConfig{UnderTest: engine.TransformKim})
	if err != nil {
		t.Fatal(err)
	}
	defer kim.Close()
	seen := map[string]int{}
	var vs []Violation
	for id := 0; id < gen.Scenarios(); id++ {
		s := gen.RangeScenario(id)
		if id%4 == 3 { // an empty inner relation in every fourth scenario
			s.Tables[1].Rows = nil
		}
		db := engine.New(64)
		if err := load(db, s); err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Pairs {
			_, opAgg, _ := strings.Cut(p.Class, "/")
			op, agg, _ := strings.Cut(opAgg, "/")
			seen[op]++
			seen[agg]++
			res, err := db.Query(p.Queries[0].SQL, regimeOptions(RegimeSeq, engine.TransformJA2))
			if err != nil {
				t.Fatal(err)
			}
			if !res.FellBack {
				seen["transformed"]++
			}
		}
		out, err := r.RunScenario(s)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		vs = append(vs, out...)
		caught, err := kim.RunScenario(s)
		if err != nil {
			t.Fatalf("scenario %d under Kim's NEST-JA: %v", id, err)
		}
		for _, v := range caught {
			if v.Check == "roundtrip" {
				seen["Kim caught"]++
				if !strings.Contains(v.Pair.Class, "COUNT") {
					seen["Kim caught beyond COUNT"]++
				}
			}
		}
	}
	reportViolations(t, vs)
	pairs := gen.Scenarios() * gen.cfg.PairsPerScenario
	if st := r.Stats(); st.Range != 2*pairs {
		t.Errorf("%d queries held bag-equal to nested iteration, want %d", st.Range, 2*pairs)
	}
	if n := seen["transformed"]; n != pairs {
		t.Errorf("NEST-JA2 transformed %d of %d queries; the rest fell back to nested iteration", n, pairs)
	}
	for _, k := range slices.Concat(rangeOps, rangeAggs, []string{"Kim caught", "Kim caught beyond COUNT"}) {
		if seen[k] == 0 {
			t.Errorf("the class drew no %s", k)
		}
	}
	t.Logf("pairs=%d seen=%v", pairs, seen)
}

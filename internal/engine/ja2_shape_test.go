package engine_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/workload"
)

// The benchmark's ja_seq shape — RI 2000 / RJ 4000 tuples at 10 per page
// over a join domain of 200, half of each side passing its filter, B = 32
// — at one scale-th of its size.
func jaSeqShape(t *testing.T, scale int) (*engine.DB, workload.SyntheticConfig) {
	t.Helper()
	cfg := workload.SyntheticConfig{Name: "ja", OuterTuples: 2000 / scale, InnerTuples: 4000 / scale,
		OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 200 / scale, Selectivity: 0.5, MatchFraction: 0.5, Seed: 1}
	db := engine.New(32)
	if err := workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg); err != nil {
		t.Fatal(err)
	}
	return db, cfg
}

// TestJA2PageIOPinned holds the paper's metric where it was before joins
// took every equality conjunct as their key: per query, in the benchmark's
// steady state (second cycle, seed 1), the page I/Os of the single-key
// plans — and the section 7.4 sort elisions still fire around the joins.
func TestJA2PageIOPinned(t *testing.T) {
	db, cfg := jaSeqShape(t, 1)
	shapes := []struct {
		name   string
		sql    string
		io     int64
		exact  bool
		traces []string
	}{
		{name: "type-N", sql: workload.TypeNQuery(cfg), io: 836, exact: true},
		// Sorting both sides on (JC, VAL) instead of VAL alone costs no
		// more; it happens to cost 16 pages less.
		{name: "type-J", sql: workload.TypeJQuery(cfg), io: 852, traces: []string{
			"final: merge join RI.JC with RJ.JC and RI.VAL with RJ.VAL (B=32)"}},
		{name: "type-JA-COUNT", sql: workload.TypeJAQuery(cfg), io: 1178, exact: true, traces: []string{
			"TEMP3: left input already in join-column order, sort elided",
			"TEMP3: input already in GROUP BY order, sort elided",
			"final: hash join RI.JC with TEMP3.JC and RI.VAL with TEMP3.CT"}},
		{name: "type-JA-MAX", sql: workload.TypeJAMaxQuery(cfg), io: 1052, exact: true, traces: []string{
			"TEMP2: left input already in join-column order, sort elided",
			"TEMP2: input already in GROUP BY order, sort elided",
			"final: hash join RI.JC with TEMP2.JC and RI.VAL with TEMP2.MAXVAL"}},
	}
	for cycle := range 2 {
		for _, s := range shapes {
			res, err := db.Query(s.sql, engine.Options{Strategy: engine.TransformJA2})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if cycle == 0 {
				continue
			}
			if got := res.Stats.Total(); got > s.io || (s.exact && got != s.io) {
				t.Errorf("%s: %d page I/Os, pinned at %d", s.name, got, s.io)
			}
			trace := strings.Join(res.Trace, "\n")
			for _, frag := range s.traces {
				if !strings.Contains(trace, frag) {
					t.Errorf("%s: trace lost %q:\n%s", s.name, frag, trace)
				}
			}
		}
	}
}

// TestJA2AllocBudget keeps per-pair allocation out of the NEST-JA2 joins:
// at a tenth of ja_seq's size, sequential and 2-worker, a query may
// allocate c objects per input and output row. c is what the composite-key
// joins measure plus 50%; the single-key joins they replaced, which built
// every pair of a nested-loops final join before testing it, measure 11.8
// on the COUNT shape.
func TestJA2AllocBudget(t *testing.T) {
	db, cfg := jaSeqShape(t, 10)
	shapes := []struct {
		name string
		sql  string
		c    float64
	}{
		{"type-J", workload.TypeJQuery(cfg), 1.6},
		{"type-JA-COUNT", workload.TypeJAQuery(cfg), 4.0},
		{"type-JA-MAX", workload.TypeJAMaxQuery(cfg), 3.4},
	}
	for _, workers := range []int{0, 2} {
		opts := engine.Options{Strategy: engine.TransformJA2,
			Planner: planner.Options{Parallelism: workers, ForceParallel: workers > 1}}
		for _, s := range shapes {
			least, rows := ^uint64(0), 0
			for range 4 { // the first run warms the pool; the least of the rest is the query's own
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := db.Query(s.sql, opts)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				least, rows = min(least, after.Mallocs-before.Mallocs), len(res.Rows)
			}
			budget := s.c * float64(cfg.OuterTuples+cfg.InnerTuples+rows)
			if float64(least) > budget {
				t.Errorf("%s, %d workers: %d allocations, budget %.0f (%.1f per input and output row)", s.name, workers, least, budget, s.c)
			}
		}
	}
}

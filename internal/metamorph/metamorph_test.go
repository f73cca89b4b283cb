package metamorph

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// shortSeed fixes the deterministic gate pass: the same pairs run on
// every machine, so a failure here replays everywhere.
const shortSeed = 20260808

func runAll(t *testing.T, gen *Generator, r *Runner) []Violation {
	t.Helper()
	var out []Violation
	for id := 0; id < gen.Scenarios(); id++ {
		vs, err := r.RunScenario(gen.Scenario(id))
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		out = append(out, vs...)
	}
	return out
}

func reportViolations(t *testing.T, vs []Violation) {
	t.Helper()
	for i := range vs {
		v := &vs[i]
		// The repro script is the whole point of a failure: print it
		// verbatim so it can be replayed without re-running the fuzzer.
		t.Errorf("%s\nminimized repro:\n%s", v.String(), v.ReproSQL)
	}
}

// TestMetamorphShort is the deterministic check-gate pass: 200 pairs
// (8 scenarios x 25) through every regime — sequential, parallel,
// nested iteration, and the live-server network path — with shrinking
// armed. Zero relation violations expected.
func TestMetamorphShort(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed})
	r, err := NewRunner(RunnerConfig{
		Parallel:  true,
		Network:   true,
		Shrink:    true,
		CorpusDir: filepath.Join(t.TempDir(), "corpus"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reportViolations(t, runAll(t, gen, r))
	st := r.Stats()
	if st.Pairs != 200 {
		t.Errorf("short pass ran %d pairs, want 200", st.Pairs)
	}
	t.Logf("pairs=%d queries=%d elapsed=%s relations=%v relaxed=%d skippedAll=%d",
		st.Pairs, st.Queries, st.Elapsed.Round(1e6), st.Relations, st.Relaxed, st.SkippedAll)
}

// TestMetamorphFaults runs a reduced pass with one fault plan armed on
// both sides: storage faults inside the engine (a fresh injector per
// scenario) and the seeded chaos proxy on the wire. Injected faults may
// cost coverage (skips), never correctness.
func TestMetamorphFaults(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed + 1, Scenarios: 4, PairsPerScenario: 10})
	plan := fault.Plan{
		Seed: shortSeed,
		Max:  24,
		Rates: fault.Rates{fault.StorageRead: 0.002, fault.StorageTear: 0.01,
			fault.NetDelay: 0.05, fault.NetSplit: 0.2, fault.NetCorrupt: 0.01, fault.NetDrop: 0.01},
		Latency: time.Millisecond,
	}
	defer func() {
		if t.Failed() {
			t.Logf("fault plan: %v", plan)
		}
	}()
	r, err := NewRunner(RunnerConfig{
		Parallel: true,
		Network:  true,
		Faults:   &plan,
		Shrink:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reportViolations(t, runAll(t, gen, r))
	st := r.Stats()
	t.Logf("pairs=%d queries=%d faultSkips=%d", st.Pairs, st.Queries, st.FaultSkips)
}

// TestMetamorphTightMemory is the tight-memory regime gate: a fixed-seed
// corpus where every query additionally runs with all memory
// reservations refused, pushing each sort, join group, and aggregate
// through checksummed spill runs. Relations must still hold, forced-spill
// results must bag-match the in-memory regime, every scenario must
// actually spill (no silent no-spill pass), and no run files may outlive
// their scenario.
func TestMetamorphTightMemory(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed + 2, Scenarios: 4, PairsPerScenario: 10})
	spillDir := filepath.Join(t.TempDir(), "spill")
	r, err := NewRunner(RunnerConfig{
		TightMemory: true,
		SpillDir:    spillDir,
		Shrink:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var vs []Violation
	prevRuns := int64(0)
	for id := 0; id < gen.Scenarios(); id++ {
		out, err := r.RunScenario(gen.Scenario(id))
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		vs = append(vs, out...)
		st := r.Stats()
		if st.SpillRuns == prevRuns {
			t.Errorf("scenario %d: tight-memory regime wrote no spill runs — the gate exercised nothing", id)
		}
		prevRuns = st.SpillRuns
		if n, err := r.db.SpillManager().LiveFiles(); err != nil || n != 0 {
			t.Fatalf("scenario %d: %d spill file(s) left behind (err %v)", id, n, err)
		}
	}
	reportViolations(t, vs)
	st := r.Stats()
	t.Logf("pairs=%d queries=%d spillRuns=%d", st.Pairs, st.Queries, st.SpillRuns)
}

// TestMetamorphCatchesKimMutant proves the oracle has teeth: pointing
// the runner at Kim's original NEST-JA (the deliberately retained
// COUNT-bug strategy) must surface a violation within the short gate's
// 200-pair budget.
func TestMetamorphCatchesKimMutant(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed})
	r, err := NewRunner(RunnerConfig{
		UnderTest: engine.TransformKim,
		Shrink:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for id := 0; id < gen.Scenarios(); id++ {
		vs, err := r.RunScenario(gen.Scenario(id))
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		if len(vs) > 0 {
			v := vs[0]
			if v.ReproSQL == "" {
				t.Fatalf("mutant violation carries no repro script: %s", v.String())
			}
			// The minimized repro must itself replay against the mutant.
			rep, err := ParseRepro(v.ReproSQL)
			if err != nil {
				t.Fatalf("mutant repro does not parse: %v\n%s", err, v.ReproSQL)
			}
			if d := rep.Replay(engine.TransformKim); d == "" {
				t.Fatalf("minimized repro no longer fails under the mutant:\n%s", v.ReproSQL)
			}
			t.Logf("mutant caught after %d pairs: %s\nminimized repro:\n%s",
				r.Stats().Pairs, v.String(), v.ReproSQL)
			return
		}
	}
	t.Fatalf("Kim NEST-JA mutant escaped %d pairs — the oracle is toothless", r.Stats().Pairs)
}

// TestMetamorphLong is the seeded long pass behind `make metamorph`,
// gated on METAMORPH_ROUNDS so plain `go test ./...` stays fast.
// METAMORPH_SEED varies the pairs; ROUNDS is the total pair budget.
func TestMetamorphLong(t *testing.T) {
	roundsEnv := os.Getenv("METAMORPH_ROUNDS")
	if roundsEnv == "" {
		t.Skip("set METAMORPH_ROUNDS (and optionally METAMORPH_SEED) to run the long pass; see `make metamorph`")
	}
	rounds, err := strconv.Atoi(roundsEnv)
	if err != nil || rounds <= 0 {
		t.Fatalf("bad METAMORPH_ROUNDS %q", roundsEnv)
	}
	seed := int64(shortSeed)
	if s := os.Getenv("METAMORPH_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad METAMORPH_SEED %q", s)
		}
		seed = n
	}
	const perScenario = 25
	gen := NewGenerator(Config{
		Seed:             seed,
		Scenarios:        (rounds + perScenario - 1) / perScenario,
		PairsPerScenario: perScenario,
	})
	r, err := NewRunner(RunnerConfig{
		Parallel:  true,
		Network:   true,
		Shrink:    true,
		CorpusDir: corpusDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reportViolations(t, runAll(t, gen, r))
	st := r.Stats()
	qps := float64(st.Queries) / st.Elapsed.Seconds()
	t.Logf("seed=%d pairs=%d queries=%d (%.0f queries/sec) violations=%d relations=%v relaxed=%d skippedAll=%d faultSkips=%d",
		seed, st.Pairs, st.Queries, qps, st.Violations, st.Relations, st.Relaxed, st.SkippedAll, st.FaultSkips)
}

func corpusDir() string {
	if d := os.Getenv("METAMORPH_CORPUS"); d != "" {
		return d
	}
	return filepath.Join(os.TempDir(), "metamorph-corpus")
}

// TestGeneratorDeterministic pins the generator contract: the same seed
// must yield byte-identical scenarios, or corpus seeds stop replaying.
func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Config{Seed: 7}).Scenario(3)
	b := NewGenerator(Config{Seed: 7}).Scenario(3)
	if a.SetupSQL() != b.SetupSQL() {
		t.Fatal("same seed generated different data")
	}
	for i := range a.Pairs {
		for qi := range a.Pairs[i].Queries {
			if a.Pairs[i].Queries[qi].SQL != b.Pairs[i].Queries[qi].SQL {
				t.Fatalf("same seed generated different SQL for pair %d", i)
			}
		}
	}
}

// TestShrinkMinimizes checks the shrinker does real work: a mutant
// violation found on a full-size scenario must come back with strictly
// fewer rows and still fail its recorded check.
func TestShrinkMinimizes(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed})
	r, err := NewRunner(RunnerConfig{UnderTest: engine.TransformKim})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for id := 0; id < gen.Scenarios(); id++ {
		s := gen.Scenario(id)
		vs, err := r.RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			continue
		}
		v := vs[0]
		min := ShrinkViolation(s, &v, engine.TransformKim)
		if replayDetail(min, &v, engine.TransformKim) == "" {
			t.Fatal("shrunk scenario no longer reproduces the violation")
		}
		before, after := rowCount(s), rowCount(min)
		if after > before {
			t.Fatalf("shrinking grew the scenario: %d -> %d rows", before, after)
		}
		t.Logf("shrunk %d rows to %d", before, after)
		return
	}
	t.Fatal("no mutant violation to shrink")
}

func rowCount(s *Scenario) int {
	n := 0
	for _, t := range s.Tables {
		n += len(t.Rows)
	}
	return n
}

// TestReproRoundTrip pins the corpus format: write, parse, replay.
func TestReproRoundTrip(t *testing.T) {
	gen := NewGenerator(Config{Seed: shortSeed})
	r, err := NewRunner(RunnerConfig{
		UnderTest: engine.TransformKim,
		Shrink:    true,
		CorpusDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for id := 0; id < gen.Scenarios(); id++ {
		vs, err := r.RunScenario(gen.Scenario(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			continue
		}
		v := vs[0]
		if v.ReproPath == "" {
			t.Fatalf("violation was not written to the corpus: %s", v.String())
		}
		rep, err := LoadRepro(v.ReproPath)
		if err != nil {
			t.Fatalf("corpus file does not load: %v", err)
		}
		if d := rep.Replay(engine.TransformKim); d == "" {
			t.Fatalf("corpus repro does not fail under the mutant:\n%s", v.ReproSQL)
		}
		if d := rep.Replay(engine.TransformJA2); d != "" {
			t.Fatalf("corpus repro fails under NEST-JA2 too — not a mutant-specific repro? %s", d)
		}
		return
	}
	t.Fatal("no violation to round-trip")
}

// TestGoldenRepros replays the pinned corpus under testdata/golden:
// generated pairs frozen as regression tests. Every repro must pass
// (empty detail) under the corrected NEST-JA2 pipeline.
func TestGoldenRepros(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.sql"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden repros pinned under testdata/golden")
	}
	for _, path := range paths {
		rep, err := LoadRepro(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if d := rep.Replay(engine.TransformJA2); d != "" {
			t.Errorf("%s: relation %s no longer holds: %s", path, rep.Relation, d)
		}
	}
}

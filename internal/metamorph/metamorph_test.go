package metamorph

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
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

// TestRunnerRedialsAfterLinkLoss: the client never sends a query twice,
// so a network-regime query whose link is cut is lost, one fault skip,
// and the runner dials a fresh connection for the next query, whose
// answer must match the in-process regime's.
func TestRunnerRedialsAfterLinkLoss(t *testing.T) {
	r, err := NewRunner(RunnerConfig{Network: true, Faults: &fault.Plan{}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := workload.LoadKiessling(&workload.DB{Cat: r.db.Catalog(), Store: r.db.Store()}); err != nil {
		t.Fatal(err)
	}
	q := workload.KiesslingQ2
	seq, err := r.runQuery(q, RegimeSeq)
	if err != nil {
		t.Fatal(err)
	}
	if first, err := r.runQuery(q, RegimeNet); err != nil || first.skip {
		t.Fatalf("net query before the cut: skip=%v err=%v", first.skip, err)
	}
	// Cut the link: the next chunk through the proxy severs it, once.
	r.proxy.Arm(fault.New(fault.Plan{Max: 1, Rates: fault.Rates{fault.NetDrop: 1}}))
	if lost, err := r.runQuery(q, RegimeNet); err != nil || !lost.skip {
		t.Fatalf("net query across the cut: skip=%v err=%v, want a fault skip", lost.skip, err)
	}
	after, err := r.runQuery(q, RegimeNet)
	if err != nil || after.skip {
		t.Fatalf("net query after the cut: skip=%v err=%v", after.skip, err)
	}
	if n := r.proxy.Connections(); n != 2 {
		t.Errorf("proxy accepted %d connections, want 2: the query after the cut ran on a new one", n)
	}
	if d := storage.Diff(engine.AcrossRegimes, after.rows, seq.rows); d != "" {
		t.Errorf("net query on the new connection: %s", d)
	}
	if n := r.Stats().FaultSkips; n != 1 {
		t.Errorf("FaultSkips = %d, want 1 (the lost query only)", n)
	}
}

// TestMetamorphTightMemory is the tight-memory regime gate: a fixed-seed
// corpus where every query additionally runs with all memory
// reservations refused, pushing each sort, join group, and aggregate
// through checksummed spill runs. Relations must still hold, forced-spill
// results must bag-match the in-memory regime, every scenario must
// actually spill (no silent no-spill pass), and no run files may outlive
// their scenario. A quantified join buffers nothing when no inner row
// matches an outer key, so section 8's predicates no longer take every
// scenario through NEST-JA2's COUNT path; each scenario carries the
// COUNT-bug pair (countProbe) explicitly, whose outer-joined temp and
// back-join groups spill whenever the outer table has a row.
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
		s := gen.Scenario(id)
		s.Pairs = append(s.Pairs, countProbe(len(s.Pairs), names(id)))
		out, err := r.RunScenario(s)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		vs = append(vs, out...)
		st := r.Stats()
		if st.SpillRuns == prevRuns {
			t.Errorf("scenario %d: tight-memory regime wrote no spill runs — the gate exercised nothing", id)
		}
		prevRuns = st.SpillRuns
		if n, err := r.db.SpillManager().LiveFiles(); err != nil || n != 0 || r.db.SpillManager().LiveRuns() != 0 {
			t.Fatalf("scenario %d: %d spill file(s), %d run(s) left behind (err %v)", id, n, r.db.SpillManager().LiveRuns(), err)
		}
	}
	reportViolations(t, vs)
	st := r.Stats()
	t.Logf("pairs=%d queries=%d spillRuns=%d", st.Pairs, st.Queries, st.SpillRuns)
}

// countProbe is the COUNT-bug pair over a scenario's tables: a type-JA
// COUNT(*) correlated on K, and the same strengthened.
func countProbe(id int, n tableNames) Pair {
	base := fmt.Sprintf("SELECT A.R, A.K FROM %s A WHERE A.V >= (SELECT COUNT(*) FROM %s B WHERE B.K = A.K)", n.A, n.B)
	want := []classify.NestType{classify.TypeJA}
	return Pair{ID: id, Class: "count-probe/type-JA", Relation: SubsetBag,
		Queries: []Query{{SQL: base, Want: want}, {SQL: base + " AND A.R >= 1", Want: want}}}
}

// TestMetamorphCatchesKimMutant proves the oracle has teeth: pointing
// the runner at Kim's original NEST-JA (the deliberately retained
// COUNT-bug strategy) must surface a violation within the short gate's
// 200-pair budget.
func TestMetamorphCatchesKimMutant(t *testing.T) {
	r, _, v := firstKimViolation(t, RunnerConfig{UnderTest: engine.TransformKim, Shrink: true})
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
	t.Logf("mutant caught after %d pairs: %s\nminimized repro:\n%s", r.Stats().Pairs, v.String(), v.ReproSQL)
}

// firstKimViolation runs the short gate's scenarios through a runner of
// cfg (pointed at the mutant) until one yields a violation; none within
// the 200-pair budget fails the test — the oracle would be toothless.
func firstKimViolation(t *testing.T, cfg RunnerConfig) (*Runner, *Scenario, Violation) {
	t.Helper()
	gen := NewGenerator(Config{Seed: shortSeed})
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	for id := 0; id < gen.Scenarios(); id++ {
		s := gen.Scenario(id)
		vs, err := r.RunScenario(s)
		if err != nil {
			t.Fatalf("scenario %d: %v", id, err)
		}
		if len(vs) > 0 {
			return r, s, vs[0]
		}
	}
	t.Fatalf("Kim NEST-JA mutant escaped %d pairs — the oracle is toothless", r.Stats().Pairs)
	panic("unreachable")
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
	_, s, v := firstKimViolation(t, RunnerConfig{UnderTest: engine.TransformKim})
	min := ShrinkViolation(s, &v, engine.TransformKim)
	if replayDetail(min, &v, engine.TransformKim) == "" {
		t.Fatal("shrunk scenario no longer reproduces the violation")
	}
	before, after := rowCount(s), rowCount(min)
	if after > before {
		t.Fatalf("shrinking grew the scenario: %d -> %d rows", before, after)
	}
	t.Logf("shrunk %d rows to %d", before, after)
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
	_, _, v := firstKimViolation(t, RunnerConfig{UnderTest: engine.TransformKim, Shrink: true, CorpusDir: t.TempDir()})
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
}

// TestReproScriptKeepsLiterals: a repro's setup goes through the SQL
// renderers (Relation.CreateSQL, Value.Literal), so values whose display
// form is not their SQL form — a quote inside a string, a FLOAT that
// prints with an exponent or without a fraction, -0.0 — come back from
// ParseRepro as the values the scenario held.
func TestReproScriptKeepsLiterals(t *testing.T) {
	day, err := value.ParseDate("7-3-79")
	if err != nil {
		t.Fatal(err)
	}
	s := &Scenario{Tables: []Table{{
		Name: "EDGE",
		Cols: []schema.Column{{Name: "S", Type: value.KindString}, {Name: "F", Type: value.KindFloat}, {Name: "D", Type: value.KindDate}},
		Key:  []string{"S"},
		Rows: []storage.Tuple{
			{value.NewString("it's; -- x"), value.NewFloat(1e21), value.Null},
			{value.NewString(""), value.NewFloat(3), value.NewDateValue(day)},
			{value.Null, value.NewFloat(math.Copysign(0, -1)), value.Null},
		},
	}}}
	v := &Violation{Pair: Pair{Relation: SetEqual, Queries: []Query{{SQL: "SELECT E.S FROM EDGE E"}}}, Check: "relation"}
	rep, err := ParseRepro(ReproScript(s, v))
	if err != nil {
		t.Fatalf("repro does not parse back: %v\n%s", err, ReproScript(s, v))
	}
	if !reflect.DeepEqual(rep.Scenario.Tables, s.Tables) {
		t.Errorf("tables changed on the way through a repro script:\n got %v\nwant %v\n%s", rep.Scenario.Tables, s.Tables, ReproScript(s, v))
	}
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

// TestParityReportsThroughSharedComparator seeds the wrong parallel result
// of internal/engine's TestVerifyParallelReportsThroughSharedComparator — a
// parallel plan that re-introduced the COUNT bug on Kiessling's Q2, which
// is what Kim's NEST-JA computes — into the runner's parallel regime. The
// parity check must report it in the words that test's comparison uses.
func TestParityReportsThroughSharedComparator(t *testing.T) {
	const wrongParallelDiff = "1 vs 2 rows; first unmatched: (8)"
	r, err := NewRunner(RunnerConfig{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := workload.LoadKiessling(&workload.DB{Cat: r.db.Catalog(), Store: r.db.Store()}); err != nil {
		t.Fatal(err)
	}
	q := Query{SQL: workload.KiesslingQ2}
	right, err1 := r.runQuery(q.SQL, RegimeSeq)
	kim, err2 := r.db.Query(q.SQL, engine.Options{Strategy: engine.TransformKim})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	p := Pair{Class: "seeded", Relation: SetEqual, Queries: []Query{q, q}}
	results := map[string][]runResult{
		RegimeSeq: {right, right}, RegimeNI: {right, right}, RegimePar: {{rows: kim.Rows}, right},
	}
	for _, v := range r.judge(&Scenario{}, p, results) {
		if v.Check == "parity" && v.QueryIndex == 0 && strings.Contains(v.Detail, "are not bag-equal: "+wrongParallelDiff+"\n") {
			return
		}
	}
	t.Errorf("no parity violation saying %q", wrongParallelDiff)
}

package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// opOrderHash hashes the generated SQL of every op and the op order a
// client would run for a few cycles.
func opOrderHash(t *testing.T, name string, seed int64) uint64 {
	t.Helper()
	spec := findWorkload(name)
	p, err := spec.prepare(&env{workload: name, seed: seed, size: smokeSize})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, o := range p.ops {
		io.WriteString(h, o.sql)
	}
	c := newClients(runConfig{seed: seed}, 1, time.Now())[0]
	for n := 0; n < 8; n++ {
		fmt.Fprint(h, c.nextOrder(p))
	}
	return h.Sum64()
}

func TestSeedDrivesInputs(t *testing.T) {
	for _, spec := range workloads {
		if a, b := opOrderHash(t, spec.name, 1), opOrderHash(t, spec.name, 1); a != b {
			t.Errorf("%s: same seed gave different ops or order", spec.name)
		}
		if a, b := opOrderHash(t, spec.name, 1), opOrderHash(t, spec.name, 2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same op order", spec.name)
		}
	}
	e1, e2 := &env{seed: 1, size: smokeSize}, &env{seed: 2, size: smokeSize}
	s1a, _, _ := clusterScript(e1)
	s1b, _, _ := clusterScript(e1)
	s2, _, _ := clusterScript(e2)
	if s1a != s1b {
		t.Error("cluster script differs between two generations at one seed")
	}
	if s1a == s2 {
		t.Error("cluster script is the same at seeds 1 and 2")
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, StartNS: start, EndNS: end}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{"nested", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 60), sp(3, 2, 20, 30)}, []time.Duration{50, 40, 10}},
		{"adjacent", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 40), sp(3, 1, 40, 70)}, []time.Duration{40, 30, 30}},
		{"overlapping", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 50), sp(3, 1, 30, 80)}, []time.Duration{30, 40, 50}},
		{"contained twice", []span{sp(1, 0, 0, 100), sp(2, 1, 10, 90), sp(3, 1, 20, 30)}, []time.Duration{20, 80, 10}},
		{"shadow outside the parent", []span{sp(1, 0, 0, 100), sp(2, 1, 120, 180)}, []time.Duration{100, 60}},
		{"child running past the parent", []span{sp(1, 0, 0, 100), sp(2, 1, 80, 150)}, []time.Duration{80, 70}},
	} {
		got := selfTimes(tc.spans)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: span %d self time %d, want %d", tc.name, tc.spans[i].ID, got[i], tc.want[i])
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for n, want := range map[int]float64{9: 50, 50: 50, 99: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (ten samples beyond it)", got)
	}
	// statistics.quantiles(v, n=4) in Python gives [2.75, 5.5, 8.25] and
	// [0.5, 2.0, 3.5] for these.
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two values = %g, %g; want 0.5, 3.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func smokeConfig(t *testing.T, name string, trace bool) runConfig {
	return runConfig{
		workload: name, seed: 1, cycles: 3, trace: trace,
		size: smokeSize, setups: 1, rounds: 1,
		tmp: t.TempDir(), traceDir: t.TempDir(), repoRoot: "..", log: io.Discard,
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs all seven workloads, both passes, at a fiftieth of the
// scale: nothing may fail, the names printed must be BENCHMARK.json's,
// and on the single-client workloads the paper's metric must repeat
// exactly when the same seed runs the same number of cycles.
func TestSmoke(t *testing.T) {
	decl := readBenchmarkJSON(t)
	var wantEnd, wantLayer []string
	for _, m := range decl.EndToEnd {
		wantEnd = append(wantEnd, m.Name)
	}
	for _, m := range decl.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantEnd)
	sort.Strings(wantLayer)
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			rep, err := runWorkload(smokeConfig(t, spec.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 || !rep.Correct {
				t.Fatalf("%d of %d ops failed (correct=%v)", rep.Failed, rep.Attempted, rep.Correct)
			}
			if got := sortedNames(rep.Metrics); fmt.Sprint(got) != fmt.Sprint(wantEnd) {
				t.Errorf("untraced pass printed %v, BENCHMARK.json declares %v", got, wantEnd)
			}
			if spec.clients == 1 {
				again, err := runWorkload(smokeConfig(t, spec.name, false))
				if err != nil {
					t.Fatal(err)
				}
				a, b := rep.Metrics["page_io_per_op"].Value, again.Metrics["page_io_per_op"].Value
				if a != b || a == 0 {
					t.Errorf("page_io_per_op %v then %v: want an exact, non-zero repeat", a, b)
				}
			}
			traced, err := runWorkload(smokeConfig(t, spec.name, true))
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 || !traced.Correct {
				t.Fatalf("traced pass: %d of %d ops failed", traced.Failed, traced.Attempted)
			}
			if got := sortedNames(traced.Metrics); fmt.Sprint(got) != fmt.Sprint(wantLayer) {
				t.Errorf("traced pass printed %v, BENCHMARK.json declares %v", got, wantLayer)
			}
			spills := traced.Metrics["spill.runs_per_op"].Value
			if (spec.name == "spill_join") != (spills > 0) {
				t.Errorf("spill.runs_per_op = %v", spills)
			}
		})
	}
}

// TestTeeth: with Kim's NEST-JA running the COUNT-bug query, the
// harness must report mismatches.
func TestTeeth(t *testing.T) {
	cfg := smokeConfig(t, "point_mix", false)
	cfg.size, cfg.teeth = fullSize, true
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Correct {
		t.Fatalf("Kim's NEST-JA lost the COUNT = 0 part and the harness reported %d failures of %d", rep.Failed, rep.Attempted)
	}
	if want := cfg.cycles; rep.Failed != want {
		t.Errorf("%d failures, want exactly the %d executions of the COUNT-bug query", rep.Failed, want)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go and
// to the contract's limits on names, units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	decl := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !name.MatchString(w.Name) {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		seen[w.Name] = true
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("declared %d + %d metrics, defined %d + %d", len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range decl.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: declared %+v, defined %+v", i, m, d)
		}
	}
	for i, m := range decl.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, defined %+v", i, m, d)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// Command bench is the repository's benchmark: seven named workloads,
// nine bounded end-to-end metrics each, and a traced pass that
// decomposes every workload into per-layer costs measured from outside,
// by timing calls into the layers' public functions. See README.md.
//
//	bash bench/run.sh --workload ja_seq --seed 1 --seconds 10 --trace 0   one run, one JSON result line
//	bash bench/run.sh                                                      all workloads, both passes
//	bash bench/run.sh --repeat 5 --out point.json                          medians, quartiles, spread
//	bash bench/run.sh compare a.json b.json                                regression verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Defaults of one run: how often set-up is timed, and how many rounds
// the timed section is cut into. Each round is normalised by its own
// kernel samples (calibrate.go), so short rounds follow the machine
// closely, and medians over rounds shrug off a disturbed one.
const (
	defaultSetups       = 5
	defaultSetupSeconds = 2
	defaultRounds       = 10
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload   = flag.String("workload", "", "run this one workload and print its JSON result line (default: all seven, both passes)")
		seed       = flag.Int64("seed", 1, "seed of data generation and op order")
		seconds    = flag.Float64("seconds", runSeconds, "length of the timed section")
		cycles     = flag.Int("cycles", 0, "run exactly this many cycles per client and round instead of --seconds: same seed, same op sequence, so counts repeat exactly")
		trace      = flag.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced pass (end-to-end metrics)")
		teeth      = flag.Bool("teeth", false, "self-check: run point_mix's COUNT-bug query under Kim's NEST-JA; the harness must report mismatches and exit non-zero")
		repeat     = flag.Int("repeat", 1, "all-workloads mode: runs per workload and pass, on consecutive seeds")
		out        = flag.String("out", "", "all-workloads mode: write every run's metrics to this JSON file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the workload's process (all-workloads mode: <file>.<workload>)")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the workload's process")
		golden     = flag.Bool("write-golden", false, "regenerate bench/testdata/golden_seed1.json from the current engine")
		declare    = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the tables in metrics.go and workloads.go define it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatalf("run from the repository root: %v", err)
	}
	switch {
	case *declare:
		printBenchmarkJSON()
	case *golden:
		if err := writeGolden(); err != nil {
			fatalf("%v", err)
		}
	case *teeth:
		os.Exit(teethCheck(*seed))
	case *workload == "":
		if err := runAll(*seed, *seconds, *repeat, *out, *cpuprofile, *memprofile); err != nil {
			fatalf("%v", err)
		}
	default:
		cfg := runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, cycles: *cycles, trace: *trace != 0,
			size: fullSize, setups: defaultSetups, setupSeconds: defaultSetupSeconds, rounds: defaultRounds,
			tmp: filepath.Join(".bench_build", "tmp"), traceDir: filepath.Join("bench", "out"),
			repoRoot: ".", log: os.Stdout,
		}
		stop := startProfiles(*cpuprofile)
		rep, err := runWorkload(cfg)
		stop(*memprofile)
		if err != nil {
			fatalf("%s: %v", *workload, err)
		}
		printReport(rep)
		line, err := json.Marshal(rep)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func startProfiles(cpu string) (stop func(mem string)) {
	var cpuFile *os.File
	if cpu != "" {
		var err error
		if cpuFile, err = os.Create(cpu); err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatalf("%v", err)
		}
	}
	return func(mem string) {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("%v", err)
			}
		}
	}
}

// printReport lists every metric by name and unit, above the JSON line.
func printReport(rep *report) {
	for _, name := range sortedNames(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Printf("  %-40s %16.4f %s\n", name, m.Value, m.Unit)
	}
}

// teethCheck proves the oracle has teeth: with the COUNT-bug query
// running under Kim's NEST-JA, which loses the COUNT = 0 part, the
// harness must count failures. It returns the process exit code: 1 when
// the bug was caught (the run is, correctly, incorrect), 3 when it was
// missed.
func teethCheck(seed int64) int {
	rep, err := runWorkload(runConfig{
		workload: "point_mix", seed: seed, seconds: 0.5, teeth: true,
		size: fullSize, setups: 1, rounds: 1,
		tmp: filepath.Join(".bench_build", "tmp"), log: os.Stdout,
	})
	if err != nil {
		fatalf("teeth: %v", err)
	}
	if rep.Failed == 0 {
		fmt.Println("teeth: MISSED — Kim's NEST-JA ran the COUNT-bug query and the harness reported no mismatch")
		return 3
	}
	fmt.Printf("teeth: caught — %d of %d ops mismatched the oracle with Kim's NEST-JA in the mix\n", rep.Failed, rep.Attempted)
	return 1
}

// writeGolden records the reference row count of every read op at seed
// 1, full size.
func writeGolden() error {
	golden := make(map[string]map[string]int)
	for _, spec := range workloads {
		p, err := spec.prepare(&env{workload: spec.name, seed: 1, size: fullSize})
		if err != nil {
			return err
		}
		golden[spec.name] = make(map[string]int)
		for _, o := range p.ops {
			if o.insertRows == 0 {
				golden[spec.name][o.name] = o.want.rows
			}
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "testdata", "golden_seed1.json"), append(data, '\n'), 0o644)
}

// runSeconds is BENCHMARK.json's run_seconds: what the acceptance
// driver passes as --seconds.
const runSeconds = 10

// printBenchmarkJSON renders the root BENCHMARK.json from the tables
// the program itself reports by, so the two cannot drift (a test holds
// the checked-in file to the same tables).
func printBenchmarkJSON() {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		decl.Workloads = append(decl.Workloads, named{w.name, w.why})
	}
	for _, m := range endToEnd {
		decl.EndToEnd = append(decl.EndToEnd, bounded{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
}

// ---- all-workloads mode ----

// series is one metric over the repeated runs of a workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
}

func (s *series) summarize() {
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
	s.Spread = spread(s.Values)
}

// workloadPoint is every run of one workload.
type workloadPoint struct {
	Attempted []int              `json:"attempted"`
	Failed    []int              `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

// point is one trajectory point: the environment and every metric of
// both passes.
type point struct {
	GitSHA     string                    `json:"git_sha"`
	GoVersion  string                    `json:"go_version"`
	NumCPU     int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Repeat     int                       `json:"repeat"`
	Claim      *string                   `json:"claim"` // a benchmark point claims no gain
	Workloads  map[string]*workloadPoint `json:"workloads"`
}

// child re-executes this binary for one workload and pass, so peak RSS,
// allocation counts and GC state never leak between workloads, and
// parses the JSON line it ends with.
func child(name string, seed int64, seconds float64, trace int, extra ...string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var rep report
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		return nil, fmt.Errorf("%s (trace %d): no result line (%v): %s", name, trace, err, stdout)
	}
	return &rep, nil
}

func runAll(seed int64, seconds float64, repeat int, out, cpuprofile, memprofile string) error {
	pt := &point{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Repeat: repeat, Workloads: make(map[string]*workloadPoint),
	}
	failed := false
	for _, spec := range workloads {
		wp := &workloadPoint{EndToEnd: make(map[string]*series), PerLayer: make(map[string]*series)}
		pt.Workloads[spec.name] = wp
		for r := 0; r < repeat; r++ {
			for trace, into := range []map[string]*series{wp.EndToEnd, wp.PerLayer} {
				var extra []string
				if trace == 0 && r == 0 {
					if cpuprofile != "" {
						extra = append(extra, "--cpuprofile", cpuprofile+"."+spec.name)
					}
					if memprofile != "" {
						extra = append(extra, "--memprofile", memprofile+"."+spec.name)
					}
				}
				rep, err := child(spec.name, seed+int64(r), seconds, trace, extra...)
				if err != nil {
					return err
				}
				wp.Attempted, wp.Failed = append(wp.Attempted, rep.Attempted), append(wp.Failed, rep.Failed)
				failed = failed || !rep.Correct
				for name, m := range rep.Metrics {
					if into[name] == nil {
						into[name] = &series{Unit: m.Unit}
					}
					into[name].Values = append(into[name].Values, m.Value)
				}
			}
		}
		fmt.Printf("%s — %s\n", spec.name, spec.why)
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range defs {
				s := wp.EndToEnd[def.name]
				if s == nil {
					s = wp.PerLayer[def.name]
				}
				s.summarize()
				if repeat > 1 {
					fmt.Printf("  %-40s %14.4f %-7s q1 %.4f  q3 %.4f  spread %.1f%%\n",
						def.name, s.Median, s.Unit, s.Q1, s.Q3, 100*s.Spread)
				} else {
					fmt.Printf("  %-40s %14.4f %s\n", def.name, s.Median, s.Unit)
				}
			}
		}
		total, bad := 0, 0
		for i := range wp.Attempted {
			total, bad = total+wp.Attempted[i], bad+wp.Failed[i]
		}
		fmt.Printf("  %-40s %14d of %d ops\n\n", "failed", bad, total)
	}
	if out != "" {
		data, err := json.MarshalIndent(pt, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one run had failed ops")
	}
	return nil
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// ---- compare ----

// compareMain prints one row per workload and end-to-end metric of two
// points — both medians, the change, the bound, a verdict — and returns
// 1 when any metric regressed. A metric whose own run-to-run spread
// exceeds its bound on either side is unresolved, never "unchanged".
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var pts [2]point
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &pts[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Printf("%-12s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	regressed := false
	for _, spec := range workloads {
		a, b := pts[0].Workloads[spec.name], pts[1].Workloads[spec.name]
		if a == nil || b == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := a.EndToEnd[def.name], b.EndToEnd[def.name]
			if sa == nil || sb == nil {
				continue
			}
			verdict := compareVerdict(def, sa, sb)
			regressed = regressed || verdict == "regressed"
			fmt.Printf("%-12s %-16s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n",
				spec.name, def.name, sa.Median, sb.Median, 100*worseBy(def, sa.Median, sb.Median), 100*def.bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// worseBy is how much worse b is than a, as a share of a (negative =
// better), in the metric's own direction.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareVerdict(def metricDef, a, b *series) string {
	switch {
	// Set-up time is a median of a few set-ups per run; its spread is
	// reported but, as in the acceptance rule, does not void the verdict.
	case def.name != "setup_s" && (a.Spread > def.bound || b.Spread > def.bound):
		return "unresolved"
	case worseBy(def, a.Median, b.Median) > def.bound:
		return "regressed"
	default:
		return "ok"
	}
}

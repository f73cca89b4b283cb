package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/storage"
)

// runConfig is one benchmark run of one workload.
type runConfig struct {
	workload     string
	seed         int64
	seconds      float64 // length of the timed section
	cycles       int     // > 0: every round runs exactly this many cycles per client instead of seconds/rounds
	trace        bool
	teeth        bool
	size         sizing
	setups       int     // set-up is timed at least this often (the median is reported) ...
	setupSeconds float64 // ... and until this much time went into it
	rounds       int     // the timed section is cut into this many rounds
	tmp          string  // scratch directory for spill runs and WAL files
	traceDir     string  // where the traced pass writes its span file
	repoRoot     string  // where loc.* counts lines
	log          io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// clientState is one closed-loop client: it sends its next op when the
// previous one returns.
type clientState struct {
	id        int
	rng       *rand.Rand
	fp        fingerprinter
	tr        *tracer
	order     []int
	lat       []float64 // ms, this round
	keepTimes bool      // traced pass: keep every op's interval
	times     [][2]time.Time
	attempted int
	failed    int
	firstErr  string
	meter     speedometer   // client 0 samples the speed kernel between ops (calibrate.go)
	paused    time.Duration // this round: time spent sampling, or waiting for the sampling client
	rate      float64       // this round: oracle-correct ops per second of wall time minus pauses
	spillRuns int64
	spillKB   float64
	fellBack  int
	wireBytes int64
}

// nextOrder draws the client's next permutation of the plan's cycle.
func (c *clientState) nextOrder(p *plan) []int {
	c.order = append(c.order[:0], p.cycle...)
	c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	return c.order
}

// cycle runs one permuted pass over the plan's cycle. Every op runs
// under gate's read lock, and every kernelGap client 0 takes the write
// lock — waiting for the ops in flight, holding back new ones — to time
// the speed kernel on an idle process (calibrate.go).
func (c *clientState) cycle(inst instance, p *plan, traced bool, gate *sync.RWMutex) {
	for _, idx := range c.nextOrder(p) {
		o := &p.ops[idx]
		var res opResult
		var err error
		arrived := time.Now()
		if c.id == 0 && arrived.Sub(c.meter.last) >= kernelGap {
			gate.Lock()
			c.meter.burst(kernelBurst)
			gate.Unlock()
		}
		gate.RLock()
		t0 := time.Now()
		c.paused += t0.Sub(arrived)
		if traced {
			res, err = inst.traced(c.tr, c.id, o)
		} else {
			res, err = inst.do(c.id, o)
		}
		t1 := time.Now()
		gate.RUnlock()
		if traced {
			c.tr.endOp()
		}
		c.attempted++
		c.lat = append(c.lat, float64(t1.Sub(t0))/float64(time.Millisecond))
		if c.keepTimes {
			c.times = append(c.times, [2]time.Time{t0, t1})
		}
		c.spillRuns += res.spillRuns
		c.spillKB += float64(res.spillBytes) / 1024
		c.wireBytes += int64(o.wireBytes)
		if res.fellBack {
			c.fellBack++
		}
		if why := c.verify(o, res, err); why != "" {
			c.failed++
			if c.firstErr == "" {
				c.firstErr = o.name + ": " + why
			}
		}
	}
}

// verify returns why the op counts as failed, or "".
func (c *clientState) verify(o *op, res opResult, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case o.broken != "":
		return o.broken
	case o.insertRows > 0:
		if res.affected != int64(o.insertRows) {
			return fmt.Sprintf("%d rows affected, want %d", res.affected, o.insertRows)
		}
	case !o.want.matches(c.fp.of(res.cols, res.rows), o.ordered):
		return fmt.Sprintf("result (%d rows) differs from the oracle-checked reference (%d rows)", len(res.rows), o.want.rows)
	}
	return ""
}

// roundStats is what one round of the timed section measured.
type roundStats struct {
	kernel     []float64 // ns: every client's kernel samples of the round
	speed      float64   // factor that normalises this round's durations (see calibrate.go)
	wall       time.Duration
	rate       float64 // oracle-correct ops per second of client time, kernel samples excluded
	ops        int
	failed     int
	lat        []float64 // sorted, ms
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	pageIO     storage.IOStats
	gcCycles   uint32
	gcPause    time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound drives every client for d (each stops at the first cycle
// boundary past the deadline) — or, when cycles > 0, for exactly that
// many cycles — and measures the process around them. The clients'
// kernel samples are taken out of the round's wall and CPU time.
func runRound(inst instance, p *plan, clients []*clientState, d time.Duration, cycles int, traced bool) roundStats {
	var before, after runtime.MemStats
	var rs roundStats
	for _, c := range clients {
		c.lat, c.paused = c.lat[:0], 0
		c.meter.reset()
		rs.ops -= c.attempted
		rs.failed -= c.failed
	}
	runtime.ReadMemStats(&before)
	io0, cpu0, t0 := inst.pageIO(), cpuTime(), time.Now()
	deadline := t0.Add(d)
	var gate sync.RWMutex
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done, bad := c.attempted, c.failed
			for n := 1; ; n++ {
				c.cycle(inst, p, traced, &gate)
				if n == cycles || cycles <= 0 && !time.Now().Before(deadline) {
					break
				}
			}
			active := time.Since(t0) - c.paused
			c.rate = float64((c.attempted-done)-(c.failed-bad)) / active.Seconds()
		}()
	}
	wg.Wait()
	rs.wall, rs.cpu, rs.pageIO = time.Since(t0), cpuTime()-cpu0, inst.pageIO().Sub(io0)
	runtime.ReadMemStats(&after)
	rs.mallocs = after.Mallocs - before.Mallocs
	rs.allocBytes = after.TotalAlloc - before.TotalAlloc
	rs.gcCycles = after.NumGC - before.NumGC
	rs.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for _, c := range clients {
		rs.lat = append(rs.lat, c.lat...)
		rs.ops += c.attempted
		rs.failed += c.failed
		rs.rate += c.rate
		rs.kernel = append(rs.kernel, c.meter.samples...)
	}
	for _, ns := range rs.kernel {
		rs.cpu -= time.Duration(ns) // the kernel is pure CPU; waiting for it is none
	}
	rs.speed = speedFactor(rs.kernel)
	sort.Float64s(rs.lat)
	return rs
}

func newClients(cfg runConfig, n int, epoch time.Time) []*clientState {
	clients := make([]*clientState, n)
	for i := range clients {
		clients[i] = &clientState{id: i, rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))}
		if cfg.trace {
			clients[i].tr = newTracer(epoch, i)
		}
	}
	return clients
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// over applies f to every round and returns the median, which one
// disturbed round cannot move.
func over(rounds []roundStats, f func(roundStats) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

// standUp times set-up at least cfg.setups times, and until
// cfg.setupSeconds are spent on it — build the databases, load the data,
// boot the servers, dial, warm up — and keeps the last instance. Each
// time comes back normalised to the reference machine speed by the
// kernel samples taken right before it, during its warm-up and right
// after it. Warm-up is untimed by the run but part of set-up: pools,
// lazy initialisation and handshakes happen here, not in the timed
// section.
func standUp(cfg runConfig, spec *workloadSpec, e *env, p *plan) (instance, []float64, error) {
	var inst instance
	var times []float64
	var meter speedometer
	for start := time.Now(); len(times) < cfg.setups || time.Since(start).Seconds() < cfg.setupSeconds; {
		if inst != nil {
			inst.close()
		}
		meter.reset()
		meter.burst(bracketSamples)
		t0 := time.Now()
		var err error
		if inst, err = spec.setup(e, p); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		warm := newClients(runConfig{seed: cfg.seed + 7919}, spec.clients, t0)
		var gate sync.RWMutex
		var wg sync.WaitGroup
		for _, c := range warm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < max(p.warm, 1); n++ {
					c.cycle(inst, p, false, &gate)
				}
			}()
		}
		wg.Wait()
		took := time.Since(t0)
		meter.burst(bracketSamples)
		for _, ns := range warm[0].meter.samples {
			took -= time.Duration(ns)
		}
		times = append(times, took.Seconds()*speedFactor(append(meter.samples, warm[0].meter.samples...)))
		for _, c := range warm {
			if c.failed > 0 {
				fmt.Fprintf(cfg.log, "warm-up: %d of %d ops failed, first: %s\n", c.failed, c.attempted, c.firstErr)
			}
		}
	}
	return inst, times, nil
}

// runWorkload performs one run: prepare the seeded inputs and their
// oracle, stand the system up, run the timed section, check the
// post-run invariants, and assemble the metrics of the requested pass.
func runWorkload(cfg runConfig) (*report, error) {
	spec := findWorkload(cfg.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{workload: cfg.workload, seed: cfg.seed, size: cfg.size, tmp: tmp, teeth: cfg.teeth, trace: cfg.trace}

	t0 := time.Now()
	p, err := spec.prepare(e)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: seed %d, %d client(s), GOMAXPROCS %d, oracle computed in %.2fs\n",
		spec.name, cfg.seed, spec.clients, runtime.GOMAXPROCS(0), time.Since(t0).Seconds())
	for _, line := range p.info {
		fmt.Fprintf(cfg.log, "%s: %s\n", spec.name, line)
	}
	inst, setupTimes, err := standUp(cfg, spec, e, p)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	if cfg.trace {
		return tracedPass(cfg, spec, e, p, inst)
	}

	clients := newClients(cfg, spec.clients, time.Now())
	rounds := make([]roundStats, cfg.rounds)
	per := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	for i := range rounds {
		rounds[i] = runRound(inst, p, clients, per, cfg.cycles, false)
		fmt.Fprintf(cfg.log, "%s: round %d: %d ops in %.2fs, kernel %.4fms (%d samples), p50 as measured %.4fms\n", spec.name, i+1,
			rounds[i].ops, rounds[i].wall.Seconds(), median(rounds[i].kernel)/1e6, len(rounds[i].kernel), percentile(rounds[i].lat, 50))
	}
	rep := &report{Metrics: make(map[string]metric)}
	var pooled, raw []float64
	for _, r := range rounds {
		rep.Attempted += r.ops
		rep.Failed += r.failed
		for _, ms := range r.lat {
			pooled = append(pooled, ms*r.speed)
		}
		raw = append(raw, r.lat...)
	}
	sort.Float64s(pooled)
	sort.Float64s(raw)
	finishErr := inst.finish()
	if finishErr != nil {
		// The run's acknowledged state did not survive: nothing it
		// reported can be trusted, so every op counts as failed.
		fmt.Fprintf(cfg.log, "%s: post-run check failed: %v\n", spec.name, finishErr)
		rep.Failed = rep.Attempted
	}
	for _, c := range clients {
		if c.firstErr != "" {
			fmt.Fprintf(cfg.log, "%s: client %d first failure: %s\n", spec.name, c.id, c.firstErr)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0

	perOp := func(f func(roundStats) float64) float64 {
		return over(rounds, func(r roundStats) float64 { return f(r) / float64(max(r.ops, 1)) })
	}
	set := func(name string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: endToEndUnit(name)} }
	set("setup_s", median(setupTimes))
	set("op_p50_ms", percentile(pooled, 50))
	set("op_p95_ms", percentile(pooled, 95))
	set("ops_per_s", over(rounds, func(r roundStats) float64 { return r.rate / r.speed }))
	set("cpu_ms_per_op", perOp(func(r roundStats) float64 { return float64(r.cpu) / float64(time.Millisecond) * r.speed }))
	set("page_io_per_op", perOp(func(r roundStats) float64 { return float64(r.pageIO.Total()) }))
	set("allocs_per_op", perOp(func(r roundStats) float64 { return float64(r.mallocs) }))
	set("alloc_kb_per_op", perOp(func(r roundStats) float64 { return float64(r.allocBytes) / 1024 }))

	fmt.Fprintf(cfg.log, "%s: as measured, before normalising to the reference machine speed (x%.3f): op_p50_ms %.4f  op_p95_ms %.4f  ops_per_s %.2f  cpu_ms_per_op %.4f\n",
		spec.name, over(rounds, func(r roundStats) float64 { return r.speed }), percentile(raw, 50), percentile(raw, 95),
		over(rounds, func(r roundStats) float64 { return r.rate }),
		perOp(func(r roundStats) float64 { return float64(r.cpu) / float64(time.Millisecond) }))
	beyond := len(pooled) - rank(95, len(pooled))
	fmt.Fprintf(cfg.log, "%s: %d ops in %d rounds of %.1fs, %d failed; p95 has %d samples beyond it (rule allows p%g)\n",
		spec.name, rep.Attempted, cfg.rounds, per.Seconds(), rep.Failed, beyond, tailPercentile(len(pooled)))
	return rep, nil
}

package main

import (
	"slices"
	"time"
)

// The sandbox this benchmark runs in changes speed under it. Measured
// while the benchmark was defined: the median latency of point_mix moves
// between 0.037 ms and 0.075 ms in regimes lasting seconds to minutes —
// often longer than a run, so no statistic over a run's rounds removes
// it. A dependent-multiply loop stays within 15% meanwhile; what slows
// down, together and by the same factor, is code that misses the
// first-level caches: pointer chasing, sorting scattered rows,
// allocation — which is what a query is. Neighbours on the host evicting
// shared cache are the likely cause.
//
// So every time-valued end-to-end metric is normalised. Every kernelGap
// the clients of a round stop between two ops, one of them runs a fixed
// kernel of that shape kernelBurst times on the otherwise idle process,
// and every duration of the round is scaled by calibrationReference /
// (the round's median kernel time). The result reads as "milliseconds
// on a machine on which the kernel takes calibrationReference" — the
// unit two commits must be compared in. Interleaved this finely the
// kernel's time follows a round's latencies with a correlation of
// 0.8-0.98, and over ten runs on ten seeds the normalised time metrics
// spread 1-7% where the same runs' values as measured spread 3-15% (and
// 23-31% in a noisier hour, against 6-11% normalised). Sampled only at
// the edges of a round (the first design) the kernel followed at 0.3-0.5
// and helped as often as it hurt. It is a partial correction: against
// the kernel (in logarithms) a point query, with its large instruction
// footprint, slows about 1.4 times as much, a sort-merge plan 1.1 times,
// the parallel and two-client workloads 0.8-0.9 times. The clients stop
// together so that the kernel never times the workload's own load: a
// change that makes a server burn more CPU must not read as a slower
// machine. The pauses are taken out of the round's wall and CPU time;
// the kernel allocates nothing, so the allocation counts need no
// correction. Counts (page I/O, allocations) are never scaled. The
// untraced pass prints its times as measured beside the normalised ones;
// the traced pass reports layer times as measured and the kernel time
// itself (machine.kernel_ms) beside them.

// calibrationReference is the kernel time all runs are normalised to:
// about its median in the sandbox's fast regime. Changing it rescales
// every time metric, so it never changes.
const calibrationReference = 800 * time.Microsecond

const (
	kernelRows = 6000
	// kernelGap is the time between two bursts of kernelBurst samples:
	// about 4% of a run goes to the kernel, and on the two-client
	// workloads about one op in twenty of the second client runs partly
	// alone while the first waits to sample.
	kernelGap   = 100 * time.Millisecond
	kernelBurst = 5
	// bracketSamples is how many kernel runs are timed right before and
	// right after each set-up, which has no op loop to interleave with.
	bracketSamples = 15
)

// speedometer times the kernel for one goroutine. Its buffers are
// allocated once, so a sample allocates nothing.
type speedometer struct {
	rows    [][]int
	back    []int
	groups  map[int]int
	sink    int       // keeps the compiler from discarding the kernel's result
	last    time.Time // end of the latest sample
	samples []float64 // ns, since the last reset
}

// kernel is the fixed work, shaped like the engine's own: fill rows
// that are small slices, sort them on a key through a comparator, group
// them through a map and fold the groups — pointer chasing, comparisons
// and data-dependent branches over a working set of a few hundred KiB.
func (s *speedometer) kernel() int {
	if s.rows == nil {
		s.rows, s.back = make([][]int, kernelRows), make([]int, 3*kernelRows)
		s.groups = make(map[int]int, 512)
	}
	x := 12345
	for i := range s.rows {
		x = (x*1103515245 + 12345) & 0x7fffffff
		r := s.back[3*i : 3*i+3 : 3*i+3]
		r[0], r[1], r[2] = x%512, x, i
		s.rows[i] = r
	}
	slices.SortFunc(s.rows, func(a, b []int) int { return a[1] - b[1] })
	clear(s.groups)
	for _, r := range s.rows {
		s.groups[r[0]] += r[2]
	}
	sum := 0
	for k, g := range s.groups {
		sum += k * g
	}
	return sum
}

// sample times one kernel run.
func (s *speedometer) sample() {
	t0 := time.Now()
	s.sink += s.kernel()
	s.last = time.Now()
	s.samples = append(s.samples, float64(s.last.Sub(t0)))
}

// burst times n kernel runs.
func (s *speedometer) burst(n int) {
	for ; n > 0; n-- {
		s.sample()
	}
}

func (s *speedometer) reset() { s.samples = s.samples[:0] }

// speedFactor is what durations measured beside these kernel samples
// (ns) are multiplied by.
func speedFactor(kernel []float64) float64 {
	if len(kernel) == 0 {
		return 1
	}
	return float64(calibrationReference) / median(kernel)
}

package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), because
// that is the rule the acceptance check applies to the run-to-run spread.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the p-th percentile (0 < p < 100) of sorted samples
// by the nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(p, len(sorted)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples; the epsilon keeps 99.9% of 10000 at 9990, not 9991.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailLevels are the tail percentiles a report may quote, ascending.
var tailLevels = []float64{90, 95, 99, 99.9}

// tailPercentile picks the highest percentile of tailLevels that still
// has at least ten of n samples beyond it, so a quoted tail is never
// one or two outliers. It returns 50 when even the lowest level has
// fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLevels {
		if beyond := n - rank(p, n); beyond >= 10 {
			best = p
		}
	}
	return best
}

package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
)

// percentile returns the p-th percentile (0..100) of xs, interpolated
// linearly between closest ranks (metrics.Percentile), or NaN for no
// values, which the final line reports as a metric not measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return metrics.Percentile(xs, p/100)
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), the rule the benchmark's spread check is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	// CPython's loop, including its clamp of j to 1..n-1 (which
	// extrapolates for very small n)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean is the arithmetic mean (NaN for no values).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

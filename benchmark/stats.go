package main

import "sort"

// minTailSamples is the smallest sample count that has a tail: the tail is
// the highest percentile with at least tailBeyond samples above it, and
// below twice that count the "tail" would sit at or under the median.
const (
	tailBeyond     = 10
	minTailSamples = 2 * tailBeyond
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile that still has at least
// tailBeyond samples strictly above it: the value at sorted index n−11, its
// percentile rank 100·(n−10)/n, and ok=false below minTailSamples samples.
// At 500 samples that is p98; at 20 it is the median.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < minTailSamples {
		return 0, 0, false
	}
	k := n - tailBeyond - 1
	return sorted(xs)[k], 100 * float64(k+1) / float64(n), true
}

// quartiles returns Q1, the median and Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (method "exclusive"), so the spreads this
// harness reports match the ones an outside checker computes. With fewer
// than two samples every quartile is the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0: a layer the workload never reaches reports
// zero work rather than a NaN the JSON encoder would refuse.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

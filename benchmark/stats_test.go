package main

import (
	"math"
	"syscall"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	if _, _, ok := tail(seq(19)); ok {
		t.Fatal("19 samples must have no tail")
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{20, 10, 50}, // the smallest tail is the median rank
		{21, 11, 100 * 11.0 / 21},
		{500, 490, 98}, // ≈p98 at 500 samples
	} {
		v, pct, ok := tail(seq(tc.n))
		if !ok || v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v (ok=%v), want %v at p%v", tc.n, v, pct, ok, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(xs, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestTypicalMetrics pins the two timing metrics to the per-kind medians:
// the geometric mean of the medians, and one round's units over the sum of
// the medians.
func TestTypicalMetrics(t *testing.T) {
	kinds := map[string]kindStat{
		"sweep": {N: 9, Units: 16, MedianMs: 100},
		"solve": {N: 9, Units: 1, MedianMs: 400},
	}
	if got := typicalLatency(kinds); math.Abs(got-200) > 1e-9 {
		t.Errorf("latency_p50_ms = %v, want 200 (√(100·400))", got)
	}
	if got := typicalThroughput(kinds); math.Abs(got-34) > 1e-9 {
		t.Errorf("throughput_ops_s = %v, want 34 (17 units in 0.5 s)", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if median(nil) != 0 {
		t.Error("no samples must read 0")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		// Overlapping children count once: [10,40) ∪ [30,50) = 40ms.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(50)},
		// A child running past its parent counts only inside it: [90,100).
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},
		// A grandchild is its child's business, not the op's.
		{ID: 5, Parent: 2, Name: "d", Start: ms(15), End: ms(20)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(50), 2: ms(25), 3: ms(20), 4: ms(30), 5: ms(5)} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\togwsbench\nVmPeak:\t  812345 kB\nVmHWM:\t   43210 kB\nVmRSS:\t   40000 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 43210 {
		t.Fatalf("parseVmHWM = %d, %v; want 43210", kb, err)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
	if mb, err := peakRSSMB(); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB = %v, %v", mb, err)
	}
}

func TestRusageCPU(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 2, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250},
	}
	if got, want := rusageCPU(&ru), 2500250*time.Microsecond; got != want {
		t.Errorf("rusageCPU = %v, want %v", got, want)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func TestParse(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkIncrementalSolve/c880/full-8   3   266520994 ns/op   200800 B/op   5886 allocs/op   6265 evalNodesPerSweep
PASS
ok  	repro	1.234s
`
	snap, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.Pkg != "repro" {
		t.Fatalf("header: %+v", snap)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.Name != "BenchmarkIncrementalSolve/c880/full-8" || b.Runs != 3 ||
		b.NsPerOp != 266520994 || *b.BytesPerOp != 200800 || *b.AllocsOp != 5886 ||
		b.Metrics["evalNodesPerSweep"] != 6265 {
		t.Fatalf("benchmark: %+v", b)
	}
}

// TestParseFoldsRepeatedLines: `go test -count 3` prints each benchmark
// three times; the snapshot keeps one entry per benchmark, in first-seen
// order, with the median ns/op and its quartiles, the largest allocs/op
// and B/op, and the median of each custom metric. A benchmark that ran
// once keeps exactly its line's fields.
func TestParseFoldsRepeatedLines(t *testing.T) {
	in := `pkg: repro
BenchmarkSweepGrid/c432/warm-2   3   300 ns/op   10 B/op   7 allocs/op   2 cellsPerSec
BenchmarkOnce-2   3   50 ns/op   1 allocs/op
BenchmarkSweepGrid/c432/warm-2   3   100 ns/op   30 B/op   9 allocs/op   6 cellsPerSec
BenchmarkSweepGrid/c432/warm-2   3   200 ns/op   20 B/op   8 allocs/op   4 cellsPerSec
pkg: repro/internal/core
`
	snap, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Pkg != "repro" {
		t.Errorf("pkg %q, want the first package", snap.Pkg)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	b := snap.Benchmarks[0]
	if b.Name != "BenchmarkSweepGrid/c432/warm-2" || b.Runs != 3 || b.Count != 3 ||
		b.NsPerOp != 200 || b.NsQ1 != 150 || b.NsQ3 != 250 ||
		*b.BytesPerOp != 30 || *b.AllocsOp != 9 || b.Metrics["cellsPerSec"] != 4 {
		t.Errorf("folded benchmark: %+v", b)
	}
	once := snap.Benchmarks[1]
	if once.Name != "BenchmarkOnce-2" || once.Count != 0 || once.NsQ1 != 0 || once.NsQ3 != 0 ||
		once.NsPerOp != 50 || once.BytesPerOp != nil || *once.AllocsOp != 1 {
		t.Errorf("single-line benchmark: %+v", once)
	}
	data, err := json.Marshal(once)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"name":"BenchmarkOnce-2","runs":3,"ns_per_op":50,"allocs_per_op":1}`; string(data) != want {
		t.Errorf("single-line JSON %s, want %s", data, want)
	}
}

func TestBenchKeyStripsGomaxprocs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkSolve/c880/full-8":  "BenchmarkSolve/c880/full",
		"BenchmarkSolve/c880/full-16": "BenchmarkSolve/c880/full",
		"BenchmarkSolve/c880/full":    "BenchmarkSolve/c880/full",
		"BenchmarkSolve/grid32x24-4":  "BenchmarkSolve/grid32x24",
	}
	for in, want := range cases {
		if got := benchKey(in); got != want {
			t.Errorf("benchKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	base := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsOp: f64(100)},
		{Name: "BenchmarkB", NsPerOp: 2000, AllocsOp: f64(50)},
	}}
	cases := []struct {
		name     string
		cur      *Snapshot
		ok       bool
		contains string
	}{
		{
			"identical",
			&Snapshot{Benchmarks: []Benchmark{
				{Name: "BenchmarkA-8", NsPerOp: 1000, AllocsOp: f64(100)},
				{Name: "BenchmarkB-8", NsPerOp: 2000, AllocsOp: f64(50)},
			}},
			true, "no regressions",
		},
		{
			"alloc growth within tolerance",
			&Snapshot{Benchmarks: []Benchmark{
				{Name: "BenchmarkA", NsPerOp: 1000, AllocsOp: f64(104)},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsOp: f64(50)},
			}},
			true, "no regressions",
		},
		{
			"alloc regression fails",
			&Snapshot{Benchmarks: []Benchmark{
				{Name: "BenchmarkA", NsPerOp: 1000, AllocsOp: f64(120)},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsOp: f64(50)},
			}},
			false, "FAIL BenchmarkA: allocs/op",
		},
		{
			"ns growth beyond noise only warns",
			&Snapshot{Benchmarks: []Benchmark{
				{Name: "BenchmarkA", NsPerOp: 5000, AllocsOp: f64(100)},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsOp: f64(50)},
			}},
			true, "warn BenchmarkA: ns/op",
		},
		{
			"ns warning shows the current spread",
			&Snapshot{Benchmarks: []Benchmark{
				{Name: "BenchmarkA", NsPerOp: 5000, NsQ1: 4000, NsQ3: 6000, Count: 3, AllocsOp: f64(100)},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsOp: f64(50)},
			}},
			true, "ns/op 1000 -> 5000 [q1 4000, q3 6000 over 3 runs]",
		},
		{
			"missing benchmark fails",
			&Snapshot{Benchmarks: []Benchmark{
				{Name: "BenchmarkA", NsPerOp: 1000, AllocsOp: f64(100)},
			}},
			false, "FAIL BenchmarkB: in baseline but missing",
		},
		{
			"extra current benchmarks are fine",
			&Snapshot{Benchmarks: []Benchmark{
				{Name: "BenchmarkA", NsPerOp: 1000, AllocsOp: f64(100)},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsOp: f64(50)},
				{Name: "BenchmarkNew", NsPerOp: 10, AllocsOp: f64(1)},
			}},
			true, "no regressions",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			ok := compare(&out, base, tc.cur, 0.05, 0.50)
			if ok != tc.ok {
				t.Errorf("compare ok = %v, want %v\n%s", ok, tc.ok, out.String())
			}
			if !strings.Contains(out.String(), tc.contains) {
				t.Errorf("output missing %q:\n%s", tc.contains, out.String())
			}
		})
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bySeed(vs ...float64) map[uint64]float64 {
	m := map[uint64]float64{}
	for i, v := range vs {
		m[uint64(i+1)] = v
	}
	return m
}

func TestCompareVerdicts(t *testing.T) {
	steady := bySeed(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name, better string
		parent       map[uint64]float64
		change       map[uint64]float64
		want         string
	}{
		{"regression past the bound", "lower", steady, bySeed(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "REGRESSION"},
		{"higher is better regresses downward", "higher", steady, bySeed(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "REGRESSION"},
		{"noise within the bound", "lower", steady, bySeed(101, 100, 100, 99, 103, 99, 101, 100, 98, 101), "within bound"},
		{"every pair won beyond the spread", "lower", steady, bySeed(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), "gain"},
		{"parent too noisy to tell", "lower", bySeed(50, 150, 80, 120, 60, 140, 100, 90, 110, 70), bySeed(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "unresolved"},
		{"noisy parent, but every change run better", "lower", bySeed(50, 150, 80, 120, 60, 140, 100, 90, 110, 70), bySeed(40, 41, 39, 40, 42, 38, 40, 41, 39, 40), "better (every run)"},
		{"no change runs", "lower", steady, nil, "missing"},
		{"too few pairs for a gain", "lower", bySeed(100, 101, 99), bySeed(90, 91, 89), "within bound"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compareMetric("w", "m", tc.better, 0.1, tc.parent, tc.change)
			if c.verdict != tc.want {
				t.Errorf("verdict %q, want %q (worse %.3f, spread %.3f, wins %d/%d)", c.verdict, tc.want, c.worse, c.spread, c.wins, c.pairs)
			}
		})
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, seed uint64, lat, thr float64, trace bool) {
		m := &meta{Workload: "solve-offline", Seed: seed, Trace: trace}
		res := &result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"latency_p50_ms":   {lat, "ms"},
			"throughput_ops_s": {thr, "ops/s"},
		}}
		if err := writeRecord(filepath.Join(dir, side), record{m, res}); err != nil {
			t.Fatal(err)
		}
	}
	for s := uint64(1); s <= 4; s++ {
		write("parent", s, 100+float64(s), 10, false)
		write("change", s, 150+float64(s), 10, false)
	}
	// A traced record must not count as a run of the end-to-end metrics.
	write("change", 9, 1, 1000, true)

	var out bytes.Buffer
	err := cmdCompare([]string{"-parent", filepath.Join(dir, "parent"), "-change", filepath.Join(dir, "change")}, spec, &out)
	if err == nil || !strings.Contains(err.Error(), "1 metric(s) regressed") {
		t.Fatalf("compare error = %v, want one regression\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"latency_p50_ms", "REGRESSION", "throughput_ops_s", "within bound", "(4)"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

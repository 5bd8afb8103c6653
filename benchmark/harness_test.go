package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

func testReference(t *testing.T) reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func quiet(string, ...any) {}

func tinyConfig(workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 1, trace: trace, setupRuns: 1,
		tiny: true, rounds: 2, verifyAll: true,
	}
}

// TestWorkloadsSmoke runs every workload at a tiny op count, untraced and
// traced: each must pass its correctness checks and print exactly the
// metrics BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	ref := testReference(t)
	spec := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, m, err := runWorkload(tinyConfig(w, trace), ref, t.Logf)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d: %v", w, trace, res.Correct, res.Failed, m.Failures)
			}
			want := spec.perLayer
			if !trace {
				want = spec.endToEnd
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.name)
					continue
				}
				if got.Unit != d.unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w, d.name, got.Unit, d.unit)
				}
			}
			if len(res.Metrics) > len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			if !trace && res.Metrics["throughput_ops_s"].Value <= 0 {
				t.Errorf("%s: throughput %v", w, res.Metrics["throughput_ops_s"].Value)
			}
			if trace && res.Metrics["harness.trace_overhead_ratio"].Value <= 0 {
				t.Errorf("%s: no trace overhead ratio", w)
			}
		}
	}
}

type specMetrics struct {
	endToEnd, perLayer []metricDef
	workloads          []string
}

func readBenchmarkJSON(t *testing.T) specMetrics {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var s specMetrics
	for _, w := range raw.Workloads {
		s.workloads = append(s.workloads, w.Name)
	}
	for _, m := range raw.EndToEnd {
		s.endToEnd = append(s.endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range raw.PerLayer {
		s.perLayer = append(s.perLayer, metricDef{m.Name, m.Unit})
	}
	return s
}

// TestBenchmarkJSONMatchesHarness keeps the committed spec and the
// harness's metric and workload lists in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	s := readBenchmarkJSON(t)
	eq := func(what string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d, the harness %d", what, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, harness %v", what, i, a[i], b[i])
			}
		}
	}
	eq("end_to_end", s.endToEnd, endToEnd)
	eq("per_layer", s.perLayer, perLayer)
	if strings.Join(s.workloads, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", s.workloads, workloadNames)
	}
}

// TestFailuresAreCounted injects a 503 and corrupts a result on the
// service-mix path: both ops must count as failed, in fail_ratio and in
// slo_miss_ratio, and the run must read incorrect.
func TestFailuresAreCounted(t *testing.T) {
	var solves atomic.Int64
	area := regexp.MustCompile(`"Area": [0-9.e+-]+`)
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			// Only the window's traced ops carry the op header; set-up and
			// warm-up requests pass untouched.
			if req.URL.Path != "/solve" || req.Header.Get(hdrOp) == "" {
				next.ServeHTTP(w, req)
				return
			}
			body, _ := io.ReadAll(req.Body)
			req.Body = io.NopCloser(bytes.NewReader(body))
			if bytes.Contains(body, []byte("save_as")) {
				next.ServeHTTP(w, req) // a chain's first half is not verified
				return
			}
			switch solves.Add(1) {
			case 1:
				http.Error(w, "shed", http.StatusServiceUnavailable)
			case 2:
				rec := httptest.NewRecorder()
				next.ServeHTTP(rec, req)
				w.WriteHeader(rec.Code)
				w.Write(area.ReplaceAll(rec.Body.Bytes(), []byte(`"Area": 1`))) //nolint:errcheck // test server
			default:
				next.ServeHTTP(w, req)
			}
		})
	}
	cfg := tinyConfig(wServiceMix, true)
	cfg.wrap = wrap
	res, m, err := runWorkload(cfg, testReference(t), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 {
		t.Fatalf("correct=%v failed=%d, want 2 failures: %v", res.Correct, res.Failed, m.Failures)
	}
	joined := strings.Join(m.Failures, "\n")
	if !strings.Contains(joined, "status 503") || !strings.Contains(joined, "differs from the in-process library result") {
		t.Errorf("failures do not name the shed and the corrupt result:\n%s", joined)
	}
	want := 2 / float64(res.Attempted)
	if got := res.Metrics["harness.fail_ratio"].Value; got != want {
		t.Errorf("fail_ratio = %v, want %v", got, want)
	}
	if got := res.Metrics["harness.slo_miss_ratio"].Value; got < want {
		t.Errorf("slo_miss_ratio = %v, want ≥ %v", got, want)
	}
}

package service

// The service oracle: the HTTP path must return results bit-identical to
// the equivalent offline core.Solver.Run / sweep.Run on the same inputs —
// the same determinism contract every lower layer holds. The tests below
// pin it three ways: POST /solve against an in-process offline solve
// (exact on every architecture), POST /solve against the committed golden
// fixtures (exact on the architecture that generated them; see
// golden_test.go at the repo root for the FMA caveat), and POST /sweep —
// streamed and buffered — against a direct sweep.Run.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

const goldenArch = "amd64"

// offlineC17 builds the same instance the golden suite's c17 fixture uses:
// the committed netlist, geometry seed 17, default pipeline.
func offlineC17(t testing.TB) *bench.Instance {
	t.Helper()
	nl, err := netlist.Parse("c17", strings.NewReader(c17Netlist(t)))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.AssembleNetlist(nl, 17, bench.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func readGolden(t testing.TB, name string) *core.Result {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	res := new(core.Result)
	if err := json.Unmarshal(data, res); err != nil {
		t.Fatal(err)
	}
	return res
}

func solveOK(t testing.TB, s *Server, body string) solveResponse {
	t.Helper()
	w := do(t, s, "POST", "/solve", body)
	if w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
	return decodeAs[solveResponse](t, w)
}

// TestSolveMatchesOfflineC17 is the architecture-independent half of the
// oracle: the HTTP path must reproduce an offline solve of the identical
// instance bit for bit.
func TestSolveMatchesOfflineC17(t *testing.T) {
	inst := offlineC17(t)
	b := bench.DeriveBounds(inst)
	sol, err := core.NewSolver(inst.Eval, core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{})
	key := registerC17(t, s, 17).Key
	got := solveOK(t, s, fmt.Sprintf(`{"key":%q}`, key))
	if !reflect.DeepEqual(offline, got.Result) {
		t.Error("HTTP solve diverged from the offline solver on the same instance")
	}
	// A second solve on the cached instance must reproduce it again: cache
	// reuse and replica evaluators add no state between requests.
	if again := solveOK(t, s, fmt.Sprintf(`{"key":%q}`, key)); !reflect.DeepEqual(got.Result, again.Result) {
		t.Error("repeated HTTP solve on the cached instance diverged")
	}
}

// TestSolveMatchesGoldenFixtures pins the HTTP path to the committed
// golden snapshots — c17 (netlist upload) and c432 (synthetic spec,
// 30-iteration budget), exactly as the root golden suite solves them.
func TestSolveMatchesGoldenFixtures(t *testing.T) {
	if runtime.GOARCH != goldenArch {
		t.Skipf("golden snapshots are bitwise only on %s (FMA; GOARCH=%s); TestSolveMatchesOfflineC17 covers this architecture", goldenArch, runtime.GOARCH)
	}
	s := New(Options{})

	t.Run("c17", func(t *testing.T) {
		key := registerC17(t, s, 17).Key
		got := solveOK(t, s, fmt.Sprintf(`{"key":%q}`, key))
		if !reflect.DeepEqual(readGolden(t, "c17"), got.Result) {
			t.Error("HTTP c17 solve diverged from the committed golden fixture")
		}
	})
	t.Run("c432", func(t *testing.T) {
		w := do(t, s, "POST", "/circuits", `{"synthetic":"c432"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("register: %d %s", w.Code, w.Body.String())
		}
		key := decodeAs[registerResponse](t, w).Key
		got := solveOK(t, s, fmt.Sprintf(`{"key":%q,"max_iterations":30}`, key))
		if !reflect.DeepEqual(readGolden(t, "c432"), got.Result) {
			t.Error("HTTP c432 solve diverged from the committed golden fixture")
		}
	})
}

// TestWarmStartReuse exercises the save_as / warm_from chain: a warmed
// solve succeeds at shifted bounds, and with the S1 reset and the dual
// dropped it is bit-identical to a cold solve at the same bounds (the
// seed-independence theorem, observed through the HTTP path).
func TestWarmStartReuse(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	base := solveOK(t, s, fmt.Sprintf(`{"key":%q,"save_as":"base"}`, key))
	if !base.Result.Converged {
		t.Fatalf("base solve did not converge: %+v", base.Result)
	}

	a0 := 1.05 * base.Result.DelayPs
	warm := solveOK(t, s, fmt.Sprintf(`{"key":%q,"a0":%g,"warm_from":"base"}`, key, a0))
	if warm.WarmFrom != "base" || !warm.Result.Converged {
		t.Fatalf("warm solve failed: %+v", warm)
	}

	cold := solveOK(t, s, fmt.Sprintf(`{"key":%q,"a0":%g}`, key, a0))
	warmS1 := solveOK(t, s, fmt.Sprintf(`{"key":%q,"a0":%g,"warm_from":"base","s1":true,"primal_only":true}`, key, a0))
	if !reflect.DeepEqual(cold.Result, warmS1.Result) {
		t.Error("warm_from with s1+primal_only diverged from the cold solve (seed independence broken over HTTP)")
	}

	// The externalized round trip: export the saved result, feed its
	// sizes and dual back inline, and reproduce the server-side warm path.
	exp := decodeAs[resultResponse](t, do(t, s, "GET", "/results?key="+key+"&name=base", ""))
	sizes, err := json.Marshal(exp.Result.X)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := json.Marshal(exp.Dual)
	if err != nil {
		t.Fatal(err)
	}
	inline := solveOK(t, s, fmt.Sprintf(`{"key":%q,"a0":%g,"seed_sizes":%s,"dual":%s}`, key, a0, sizes, dual))
	if !reflect.DeepEqual(warm.Result, inline.Result) {
		t.Error("inline seed_sizes+dual diverged from the server-side warm_from path")
	}
}

// sweepBody is the request both sweep oracle tests share.
func sweepBody(key string, stream bool) string {
	return fmt.Sprintf(`{"key":%q,"delay_scale":[1,1.06],"noise_scale":[0.9,1,1.2],"max_iterations":6,"sweep_workers":2,"stream":%t}`, key, stream)
}

// TestSweepMatchesOffline cross-checks POST /sweep — buffered and
// streamed — against a direct sweep.Run on the identical instance.
func TestSweepMatchesOffline(t *testing.T) {
	inst := offlineC17(t)
	b := bench.DeriveBounds(inst)
	offline, err := sweep.Run(inst, sweep.Options{
		DelayScale: []float64{1, 1.06}, NoiseScale: []float64{0.9, 1, 1.2},
		Bounds: &b, MaxIterations: 6, SweepWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{})
	key := registerC17(t, s, 17).Key
	w := do(t, s, "POST", "/sweep", sweepBody(key, false))
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", w.Code, w.Body.String())
	}
	buffered := decodeAs[sweepResponse](t, w)
	stripSweepTiming(offline)
	stripSweepTiming(buffered.Result)
	if !reflect.DeepEqual(offline, buffered.Result) {
		t.Error("HTTP sweep diverged from the offline sweep engine")
	}

	// Streamed: one NDJSON cell per line, then the summary; reassembled
	// row-major they are the same grid.
	w = do(t, s, "POST", "/sweep", sweepBody(key, true))
	if w.Code != http.StatusOK {
		t.Fatalf("streamed sweep: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("streamed Content-Type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != len(offline.Cells)+1 {
		t.Fatalf("streamed %d lines, want %d cells + summary", len(lines), len(offline.Cells))
	}
	var summary sweepSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil || !summary.Done {
		t.Fatalf("bad summary line %q: %v", lines[len(lines)-1], err)
	}
	if !reflect.DeepEqual(summary.Frontier, offline.Frontier) {
		t.Errorf("streamed frontier %v, want %v", summary.Frontier, offline.Frontier)
	}
	got := make([]sweep.Cell, len(offline.Cells))
	for _, line := range lines[:len(lines)-1] {
		var c sweep.Cell
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("bad cell line %q: %v", line, err)
		}
		c.SolveSec = 0
		got[c.Row*summary.Cols+c.Col] = c
	}
	if !reflect.DeepEqual(offline.Cells, got) {
		t.Error("streamed cells diverged from the offline sweep grid")
	}
}

func stripSweepTiming(r *sweep.Result) {
	for i := range r.Cells {
		r.Cells[i].SolveSec = 0
	}
}

func TestSweepErrors(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	cases := []struct {
		name, body string
		code       int
		want       string
	}{
		{"invalid json", `{`, http.StatusBadRequest, "bad sweep request"},
		{"unknown key", `{"key":"nope"}`, http.StatusNotFound, "no cached circuit"},
		{"bad factor", fmt.Sprintf(`{"key":%q,"delay_scale":[-1]}`, key),
			http.StatusUnprocessableEntity, "must be positive"},
		// The retired lockstep option is now an unknown field.
		{"retired lockstep", fmt.Sprintf(`{"key":%q,"lockstep":true}`, key),
			http.StatusBadRequest, "unknown field"},
		// So is the retired full-pass option, on grids and on corners.
		{"retired full", fmt.Sprintf(`{"key":%q,"full":true}`, key),
			http.StatusBadRequest, "unknown field"},
		{"retired full corners", fmt.Sprintf(`{"key":%q,"corners":true,"full":true}`, key),
			http.StatusBadRequest, "unknown field"},
		// So is the retired per-solve width: every solve runs serially.
		{"retired workers", fmt.Sprintf(`{"key":%q,"workers":2}`, key),
			http.StatusBadRequest, "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, "POST", "/sweep", c.body)
			if w.Code != c.code {
				t.Fatalf("status %d, want %d (%s)", w.Code, c.code, w.Body.String())
			}
			if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, c.want) {
				t.Errorf("error %q does not mention %q", e.Error, c.want)
			}
		})
	}
	// A streamed sweep that fails before the first cell still gets a real
	// error status (nothing was committed yet), with the JSON error body.
	w := do(t, s, "POST", "/sweep", fmt.Sprintf(`{"key":%q,"delay_scale":[-1],"stream":true}`, key))
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("streamed pre-first-cell error: status %d, want 422", w.Code)
	}
	if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, "must be positive") {
		t.Errorf("streamed error %q does not mention the bad factor", e.Error)
	}
}

package repro

// Golden fixtures for the process-variation modes (internal/variation).
// Each fixture pins a full variation report on the c432 ISCAS netlist to
// a committed JSON snapshot, bitwise on goldenArch: the corner
// enumeration (every cell's full core.Result plus the cross-corner delay
// distribution) and a seed-7 Monte-Carlo run (every sample's
// perturbation scalars and result, the delay/area/noise distributions,
// and the yield). Refresh with the shared -update flag
// (`go test -run TestGolden -update .` / `make golden`) and commit the
// rewritten JSON together with the numerical change that explains it.
//
// Beyond the snapshot, each fixture re-runs at other worker widths (and,
// for Monte-Carlo, on the solo path) and demands the identical bytes —
// the variation layer's determinism contract at ISCAS scale.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/variation"
)

// variationInstance builds the c432 instance the variation fixtures run
// on — the same spec + pipeline the c432 solver fixture uses.
func variationInstance(t *testing.T) (*bench.Instance, bench.Bounds) {
	t.Helper()
	s, ok := bench.SpecByName("c432")
	if !ok {
		t.Fatal("unknown spec c432")
	}
	inst, err := bench.BuildInstance(s, bench.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return inst, bench.DeriveBounds(inst)
}

func checkGoldenJSON[T any](t *testing.T, name string, ref *T) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		data, err := json.MarshalIndent(ref, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update .` to create)", err)
	}
	want := new(T)
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH == goldenArch && !reflect.DeepEqual(want, ref) {
		t.Errorf("result diverged from golden snapshot %s", path)
	}
}

// TestGoldenVariationCorners pins the standard five-corner enumeration of
// c432 to its snapshot, bitwise on goldenArch.
func TestGoldenVariationCorners(t *testing.T) {
	inst, b := variationInstance(t)
	ref, err := variation.CornerSweep(inst, variation.CornerOptions{Bounds: &b, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenJSON(t, "c432-corners.json", ref)
}

// TestGoldenVariationMonteCarlo pins the seed-7 Monte-Carlo run of c432:
// the snapshot bitwise on goldenArch, plus fan-out (GOMAXPROCS samples at
// a time) ≡ solo, bitwise everywhere.
func TestGoldenVariationMonteCarlo(t *testing.T) {
	inst, b := variationInstance(t)
	opt := variation.MCOptions{
		Samples:       8,
		Seed:          7,
		Sigmas:        variation.Sigmas{R: 0.05, C: 0.05, Threshold: 0.08},
		Bounds:        &b,
		MaxIterations: 20,
	}
	ref, err := variation.MonteCarlo(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenJSON(t, "c432-mc-seed7.json", ref)

	sopt := opt
	sopt.Solo = true
	solo, err := variation.MonteCarlo(inst, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, solo) {
		t.Error("solo Monte-Carlo diverged from the snapshot run")
	}
}

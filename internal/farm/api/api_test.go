package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/rc"
)

func TestCircuitSpecValidate(t *testing.T) {
	grid := &GridSpec{Width: 4, Layers: 3, Coupled: true}
	cases := []struct {
		name    string
		spec    CircuitSpec
		wantErr string
	}{
		{"synthetic", CircuitSpec{Key: "k", Synthetic: "c432"}, ""},
		{"netlist", CircuitSpec{Key: "k", Netlist: "INPUT(a)", Name: "up", Seed: 7}, ""},
		{"grid", CircuitSpec{Key: "k", Grid: grid}, ""},
		{"no source", CircuitSpec{Key: "k"}, "exactly one"},
		{"two sources", CircuitSpec{Key: "k", Synthetic: "c432", Grid: grid}, "exactly one"},
		{"all sources", CircuitSpec{Key: "k", Synthetic: "c432", Netlist: "x", Grid: grid}, "exactly one"},
		{"missing key", CircuitSpec{Synthetic: "c432"}, "cache key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestJobRoundTrip pins the determinism contract's wire half: a batch
// job (seed sizes, a perturbation, a dual state) and a cell result (a
// full core.Result and its dual) survive encoding/json bit for bit, so a
// worker solves exactly the cell the coordinator planned and the
// coordinator records exactly the bits the worker solved.
func TestJobRoundTrip(t *testing.T) {
	inst, b, err := bench.GridInstance(4, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := inst.Replica()
	if err != nil {
		t.Fatal(err)
	}
	solved, err := bench.SolveCell(ev, b, inst.Eval.X, nil, bench.CellOptions{MaxIterations: 5, ReturnDual: true})
	if err != nil {
		t.Fatal(err)
	}
	if solved.Dual == nil {
		t.Fatal("the solve kept no dual")
	}
	// Real solver sizes plus floats that stress the shortest round-trip
	// encoding: a repeating binary fraction, the smallest subnormal, the
	// largest finite value, and the float just above 1.
	seed := append(append([]float64(nil), solved.Result.X...),
		0.1, 1.0/3, 5e-324, math.MaxFloat64, math.Nextafter(1, 2), -0.0)
	job := Job{
		ID:      7,
		Circuit: CircuitSpec{Key: bench.GridKey(4, 3, true), Grid: &GridSpec{Width: 4, Layers: 3, Coupled: true}},
		Batch: bench.Batch{
			Chain: true, Duals: true, S1: true,
			Seed: seed, Dual: solved.Dual,
			MaxIterations: 12, Epsilon: 0.003,
			Cells: []bench.Cell{
				{Index: 0, Bounds: b},
				{Index: 5, Bounds: bench.Bounds{A0: b.A0 * 1.06, NoiseBound: b.NoiseBound / 3, PowerBound: b.PowerBound},
					Perturb: &rc.Perturb{R: math.Exp(0.05 * -1.2345), C: math.Exp(0.05 * 0.987), Threshold: math.Nextafter(1, 0)}},
			},
		},
	}
	var gotJob Job
	roundTrip(t, job, &gotJob)
	if !reflect.DeepEqual(job, gotJob) {
		t.Errorf("job changed on the wire:\n got %+v\nwant %+v", gotJob, job)
	}
	for i := range seed {
		if math.Float64bits(gotJob.Seed[i]) != math.Float64bits(seed[i]) {
			t.Errorf("seed[%d] = %b, want the bits of %b", i, gotJob.Seed[i], seed[i])
		}
	}

	line := ResultLine{Cell: &CellResult{Index: 5, Solved: *solved}}
	var gotLine ResultLine
	roundTrip(t, line, &gotLine)
	if !reflect.DeepEqual(line, gotLine) {
		t.Errorf("cell result changed on the wire:\n got %+v\nwant %+v", gotLine.Cell, line.Cell)
	}
}

func roundTrip(t *testing.T, in, out any) {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

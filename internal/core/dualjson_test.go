package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// solvedDual runs a coupled solve with a per-net bound (so every snapshot
// field is populated) and returns the solver plus its final dual state.
func solvedDual(t *testing.T) (*Solver, *DualState, Options) {
	t.Helper()
	g, id, cs := coupledVictim(t)
	ev := newEval(t, g, cs)
	ev.SetAllSizes(1)
	ev.Recompute()
	a0 := ev.MaxArrival()
	opt := DefaultOptions(1.02*a0, 18+cs.ConstantOffset(), 0)
	opt.MaxIterations = 40
	opt.PerNetNoiseBounds = map[int]float64{id["w1"]: 16}
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.Run(); err != nil {
		t.Fatal(err)
	}
	d := sol.DualState()
	if d == nil {
		t.Fatal("no dual state after Run")
	}
	return sol, d, opt
}

// TestDualStateJSONRoundTrip pins the externalized warm start: a snapshot
// marshalled to JSON and back must drive RunFromDual to the bit-identical
// result the in-memory snapshot produces.
func TestDualStateJSONRoundTrip(t *testing.T) {
	sol, d, _ := solvedDual(t)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back := new(DualState)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatal("dual state did not round-trip through JSON")
	}
	seed := append([]float64(nil), sol.ev.X...)
	want, err := sol.RunFromDual(seed, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sol.RunFromDual(seed, back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("warm start from the round-tripped dual state diverged")
	}
}

func TestDualStateJSONRejectsPoison(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"negative beta", `{"edge":[[0.1]],"beta":-1,"gamma":0}`, "beta"},
		{"inf gamma", `{"edge":[[0.1]],"beta":0,"gamma":1e999}`, "gamma"},
		{"negative edge", `{"edge":[[-0.5]],"beta":0,"gamma":0}`, "edge[0]"},
		{"negative gamma_v", `{"edge":[[0.1]],"beta":0,"gamma":0,"gamma_v":[-2]}`, "gamma_v[0]"},
		{"malformed", `{"edge":`, "unexpected end"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := json.Unmarshal([]byte(c.body), new(DualState))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestDualStateShapeRejected verifies RunFromDual's shape validation
// rejects a snapshot from a different circuit.
func TestDualStateShapeRejected(t *testing.T) {
	sol, d, _ := solvedDual(t)
	other := &DualState{edge: d.edge[:len(d.edge)-1], beta: d.beta, gamma: d.gamma}
	if _, err := sol.RunFromDual(append([]float64(nil), sol.ev.X...), other); err == nil {
		t.Fatal("mismatched dual state accepted")
	}
}

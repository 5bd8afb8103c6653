package repro

import (
	"reflect"
	"strings"
	"testing"
)

const c17 = `INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestSyntheticC432EndToEnd(t *testing.T) {
	inst, err := Synthetic("c432")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Gates() != 214 || inst.Wires() != 426 {
		t.Fatalf("counts %d/%d, want 214/426", inst.Gates(), inst.Wires())
	}
	rep, err := inst.Optimize(inst.DefaultBounds())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("did not converge: %+v", rep)
	}
	if rep.Final.AreaUM2 >= rep.Initial.AreaUM2/2 {
		t.Errorf("area %g -> %g: expected large reduction", rep.Initial.AreaUM2, rep.Final.AreaUM2)
	}
	if rep.Final.NoisePF >= rep.Initial.NoisePF/2 {
		t.Errorf("noise %g -> %g: expected large reduction", rep.Initial.NoisePF, rep.Final.NoisePF)
	}
}

func TestSyntheticUnknownName(t *testing.T) {
	if _, err := Synthetic("c9999"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFromBenchC17(t *testing.T) {
	inst, err := FromBench("c17", strings.NewReader(c17), 17)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Gates() != 6 || inst.Wires() != 14 {
		t.Fatalf("counts %d/%d, want 6/14", inst.Gates(), inst.Wires())
	}
	init := inst.Initial()
	if init.DelayPs <= 0 || init.AreaUM2 <= 0 || init.PowerMW <= 0 {
		t.Fatalf("bad initial metrics: %+v", init)
	}
	rep, err := inst.Optimize(inst.DefaultBounds())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("c17 did not converge: gap %g", rep.Gap)
	}
	if rep.Final.DelayPs > inst.DefaultBounds().A0*1.02 {
		t.Errorf("delay %g misses bound %g", rep.Final.DelayPs, inst.DefaultBounds().A0)
	}
}

func TestFromBenchParseError(t *testing.T) {
	if _, err := FromBench("bad", strings.NewReader("garbage"), 1); err == nil {
		t.Fatal("garbage netlist accepted")
	}
}

// TestOptimizeBatch runs two instances concurrently and checks the reports
// match standalone solves.
func TestOptimizeBatch(t *testing.T) {
	build := func() []*Instance {
		var insts []*Instance
		for _, name := range []string{"c432", "c880"} {
			inst, err := Synthetic(name)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
		}
		return insts
	}
	reports, err := OptimizeBatch(build(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for i, inst := range build() {
		want, err := inst.Optimize(inst.DefaultBounds())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, reports[i]) {
			t.Errorf("batch report %d diverged from standalone solve", i)
		}
	}
	if _, err := OptimizeBatch(build(), make([]Bounds, 1), 0); err == nil {
		t.Error("mismatched bounds length accepted")
	}
}

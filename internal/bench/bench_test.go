package bench

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

// TestGenerateMatchesAllSpecs verifies the generator hits the published
// gate/wire/input/output counts and the target depth for every Table-1
// circuit.
func TestGenerateMatchesAllSpecs(t *testing.T) {
	for _, spec := range ISCAS85 {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && spec.Components() > 3000 {
				t.Skip("short mode")
			}
			nl, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			st := nl.Stats()
			if st.Gates != spec.Gates {
				t.Errorf("gates = %d, want %d", st.Gates, spec.Gates)
			}
			if got := st.Connections + st.Outputs; got != spec.Wires {
				t.Errorf("wires = %d, want %d", got, spec.Wires)
			}
			if st.Inputs != spec.Inputs || st.Outputs != spec.Outputs {
				t.Errorf("interface %d/%d, want %d/%d", st.Inputs, st.Outputs, spec.Inputs, spec.Outputs)
			}
			if st.Depth != spec.Depth {
				t.Errorf("depth = %d, want %d", st.Depth, spec.Depth)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := SpecByName("c432")
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("different gate counts across runs")
	}
	for i := range a.Gates {
		if a.Gates[i].Name != b.Gates[i].Name || a.Gates[i].Type != b.Gates[i].Type {
			t.Fatalf("gate %d differs across runs", i)
		}
	}
}

func TestGenerateXorHeavyMix(t *testing.T) {
	spec, _ := SpecByName("c499") // XorHeavy
	nl, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	xor := 0
	for _, g := range nl.Gates {
		if g.Type == netlist.Xor || g.Type == netlist.Xnor {
			xor++
		}
	}
	if xor < spec.TwoInputGates()/4 {
		t.Errorf("XorHeavy circuit has only %d XOR/XNOR gates", xor)
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	bad := []Spec{
		{Name: "neg-n2", Gates: 10, Wires: 15, Inputs: 3, Outputs: 10, Depth: 3, Seed: 1},
		{Name: "no-inputs", Gates: 10, Wires: 25, Inputs: 0, Outputs: 5, Depth: 3, Seed: 1},
		{Name: "depth>gates", Gates: 3, Wires: 8, Inputs: 2, Outputs: 2, Depth: 5, Seed: 1},
	}
	for _, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("%s: accepted", s.Name)
		}
	}
}

func TestSpecIdentities(t *testing.T) {
	for _, s := range ISCAS85 {
		if s.OneInputGates() < 0 || s.TwoInputGates() < 0 {
			t.Errorf("%s: inconsistent fan-in split", s.Name)
		}
		if s.OneInputGates()+s.TwoInputGates() != s.Gates {
			t.Errorf("%s: split does not sum to gates", s.Name)
		}
		if s.Components() != s.Gates+s.Wires {
			t.Errorf("%s: components mismatch", s.Name)
		}
	}
	if _, ok := SpecByName("c432"); !ok {
		t.Error("SpecByName(c432) not found")
	}
	if _, ok := SpecByName("zzz"); ok {
		t.Error("SpecByName(zzz) should not exist")
	}
}

func TestWireLengthDeterministicAndBounded(t *testing.T) {
	f := func(seed int64, from, to, branch uint16) bool {
		l := wireLength(seed, int(from), int(to), int(branch))
		if l < 30 || l >= 90 {
			return false
		}
		return l == wireLength(seed, int(from), int(to), int(branch))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuildInstanceC432(t *testing.T) {
	spec, _ := SpecByName("c432")
	inst, err := BuildInstance(spec, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := inst.Elab.Graph.Stats()
	if st.Gates != spec.Gates || st.Wires != spec.Wires {
		t.Fatalf("elaborated %d gates / %d wires, want %d/%d", st.Gates, st.Wires, spec.Gates, spec.Wires)
	}
	if inst.Coupling.Len() == 0 {
		t.Fatal("no coupling pairs")
	}
	// Initial metrics are the uniform 1 µm sizing.
	if inst.Init.Area <= inst.Floor.Area {
		t.Error("init area should exceed floor area")
	}
	if inst.Init.NoiseLinFF <= inst.Floor.NoiseLinFF {
		t.Error("init noise should exceed floor noise")
	}
	// Floor noise = exactly Lo/Init ratio of init noise (linear measure).
	ratio := inst.Floor.NoiseLinFF / inst.Init.NoiseLinFF
	if math.Abs(ratio-0.1) > 1e-9 {
		t.Errorf("floor/init noise ratio = %g, want 0.1 (Lo/InitSize)", ratio)
	}
}

// TestOrderingPolicyAffectsCrosstalk checks stage 1's effect: the WOSS
// ordering gives no worse total SS cost than identity or random tracks.
func TestOrderingPolicyAffectsCrosstalk(t *testing.T) {
	spec, _ := SpecByName("c432")
	costs := map[Ordering]float64{}
	for _, ord := range []Ordering{OrderWOSS, OrderIdentity, OrderRandom} {
		inst, err := BuildInstance(spec, PipelineOptions{Ordering: ord})
		if err != nil {
			t.Fatal(err)
		}
		costs[ord] = inst.OrderingCost
	}
	if costs[OrderWOSS] > costs[OrderIdentity] {
		t.Errorf("WOSS cost %g worse than identity %g", costs[OrderWOSS], costs[OrderIdentity])
	}
	if costs[OrderWOSS] > costs[OrderRandom] {
		t.Errorf("WOSS cost %g worse than random %g", costs[OrderWOSS], costs[OrderRandom])
	}
}

// TestSimilarityWeightsChangeEffectiveNoise checks that the Miller-effect
// weighting produces a different (generally lower, thanks to stage 1)
// effective crosstalk than the purely physical accounting.
func TestSimilarityWeightsChangeEffectiveNoise(t *testing.T) {
	spec, _ := SpecByName("c432")
	phys, err := BuildInstance(spec, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := BuildInstance(spec, PipelineOptions{SimilarityWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if phys.Init.NoiseLinFF == weighted.Init.NoiseLinFF {
		t.Error("similarity weights had no effect on effective noise")
	}
	// WOSS places similar wires together, so the weighted (Miller-aware)
	// noise should be below the physical count.
	if weighted.Init.NoiseLinFF >= phys.Init.NoiseLinFF {
		t.Errorf("weighted noise %g not below physical %g after WOSS ordering",
			weighted.Init.NoiseLinFF, phys.Init.NoiseLinFF)
	}
}

// TestTable1RowC432 runs the full two-stage flow on the smallest circuit
// and checks the paper's Table-1 shape: ~90% noise reduction, ~85%+ power
// and area reduction, delay within a few percent of the bound, convergence
// to 1% precision.
func TestTable1RowC432(t *testing.T) {
	spec, _ := SpecByName("c432")
	row, err := RunRow(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !row.Converged {
		t.Fatalf("did not converge: gap %g after %d iterations", row.Gap, row.Iterations)
	}
	if row.Gap > 0.01 {
		t.Errorf("gap %g above the paper's 1%% precision", row.Gap)
	}
	check := func(name string, impr, lo, hi float64) {
		t.Helper()
		if impr < lo || impr > hi {
			t.Errorf("%s improvement %.1f%%, want within [%g%%, %g%%]", name, impr, lo, hi)
		}
	}
	noiseImpr := 100 * (row.InitNoisePF - row.FinNoisePF) / row.InitNoisePF
	powerImpr := 100 * (row.InitPowerMW - row.FinPowerMW) / row.InitPowerMW
	areaImpr := 100 * (row.InitAreaUM2 - row.FinAreaUM2) / row.InitAreaUM2
	delayImpr := 100 * (row.InitDelayPs - row.FinDelayPs) / row.InitDelayPs
	check("noise", noiseImpr, 80, 95) // paper: 89.67% average
	check("power", powerImpr, 80, 95) // paper: 86.82%
	check("area", areaImpr, 80, 95)   // paper: 87.90%
	if math.Abs(delayImpr) > 10 {     // paper: 5.3% average, some negative
		t.Errorf("delay change %.1f%%, want within ±10%%", delayImpr)
	}
	if row.FinDelayPs > row.InitDelayPs*1.02 {
		t.Errorf("final delay %g violates the bound %g by more than 2%%", row.FinDelayPs, row.InitDelayPs)
	}
}

// TestTable1SmallSubset runs three circuits end to end and checks the
// average improvements land in the paper's band.
func TestTable1SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var specs []Spec
	for _, n := range []string{"c432", "c499", "c880"} {
		s, _ := SpecByName(n)
		specs = append(specs, s)
	}
	rows, err := RunTable1Parallel(specs, RunOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	noise, delay, power, area := Improvements(rows)
	if noise < 80 || noise > 95 {
		t.Errorf("avg noise improvement %.1f%%, paper 89.67%%", noise)
	}
	if power < 80 || power > 95 {
		t.Errorf("avg power improvement %.1f%%, paper 86.82%%", power)
	}
	if area < 80 || area > 95 {
		t.Errorf("avg area improvement %.1f%%, paper 87.90%%", area)
	}
	if math.Abs(delay) > 10 {
		t.Errorf("avg delay improvement %.1f%%, paper 5.3%%", delay)
	}
	pts := Figure10(rows)
	if len(pts) != 3 {
		t.Fatalf("Figure10 returned %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Tot < pts[i-1].Tot {
			t.Error("Figure10 points not sorted by size")
		}
	}
	// Figure 10(a): memory grows with circuit size.
	if !(pts[0].MemMB < pts[len(pts)-1].MemMB) {
		t.Errorf("memory not increasing with size: %+v", pts)
	}
}

func TestImprovementsEmpty(t *testing.T) {
	n, d, p, a := Improvements(nil)
	if n != 0 || d != 0 || p != 0 || a != 0 {
		t.Error("Improvements(nil) should be zero")
	}
}

// TestImprovementsSkipsZeroDenominators: a zero (or NaN) initial value —
// e.g. zero initial noise on an uncoupled circuit — must drop that row
// from that metric's average only, instead of poisoning every summary
// with NaN/Inf. Each metric keeps its own row count.
func TestImprovementsSkipsZeroDenominators(t *testing.T) {
	rows := []*Table1Row{
		{InitNoisePF: 2, FinNoisePF: 1, InitDelayPs: 100, FinDelayPs: 90,
			InitPowerMW: 4, FinPowerMW: 2, InitAreaUM2: 10, FinAreaUM2: 5},
		// Uncoupled circuit: zero initial noise; also a degenerate
		// zero-area row and a NaN initial power.
		{InitNoisePF: 0, FinNoisePF: 0, InitDelayPs: 200, FinDelayPs: 100,
			InitPowerMW: math.NaN(), FinPowerMW: 1, InitAreaUM2: 0, FinAreaUM2: 0},
		// Non-finite FINAL values and an Inf initial: each must drop its
		// row from its own metric only, like the bad denominators.
		{InitNoisePF: 4, FinNoisePF: math.NaN(), InitDelayPs: math.Inf(1), FinDelayPs: 100,
			InitPowerMW: 2, FinPowerMW: math.Inf(1), InitAreaUM2: 8, FinAreaUM2: 4},
	}
	noise, delay, power, area := Improvements(rows)
	for name, v := range map[string]float64{"noise": noise, "delay": delay, "power": power, "area": area} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s improvement is %g — zero/NaN denominator leaked into the average", name, v)
		}
	}
	if noise != 50 {
		t.Errorf("noise improvement %g%%, want 50 (zero-noise row skipped)", noise)
	}
	if delay != 30 {
		t.Errorf("delay improvement %g%%, want 30 (both rows defined)", delay)
	}
	if power != 50 {
		t.Errorf("power improvement %g%%, want 50 (NaN-power row skipped)", power)
	}
	if area != 50 {
		t.Errorf("area improvement %g%%, want 50 (zero-area row skipped)", area)
	}
	// All-zero denominators: the metric reports 0, not NaN.
	zeroRows := []*Table1Row{{InitDelayPs: 10, FinDelayPs: 8}}
	n2, _, _, _ := Improvements(zeroRows)
	if n2 != 0 {
		t.Errorf("noise improvement over zero-noise rows = %g, want 0", n2)
	}
}

func TestDeriveBoundsFeasibleOrdering(t *testing.T) {
	spec, _ := SpecByName("c432")
	inst, err := BuildInstance(spec, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := DeriveBounds(inst)
	if b.A0 <= 0 {
		t.Error("A0 not positive")
	}
	if b.NoiseBound <= inst.Coupling.ConstantOffset() {
		t.Error("noise bound below constant offset (infeasible)")
	}
	if b.PowerBound <= inst.Floor.PowerCapFF {
		t.Error("power bound below the floor (infeasible)")
	}
}

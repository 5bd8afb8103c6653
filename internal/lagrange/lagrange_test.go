package lagrange

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

// FlowImbalance returns the largest |Σout − Σin| over all nodes that
// Theorem 3 constrains; zero (up to roundoff) after ProjectFlow.
func (m *Multipliers) FlowImbalance() float64 {
	worst := 0.0
	for i := 1; i < m.g.NumNodes()-1; i++ {
		outSum := 0.0
		for _, r := range m.out[i] {
			outSum += m.Edge[r.node][r.pos]
		}
		inSum := 0.0
		for _, v := range m.Edge[i] {
			inSum += v
		}
		if d := math.Abs(outSum - inSum); d > worst {
			worst = d
		}
	}
	return worst
}

// Validate checks non-negativity of every multiplier.
func (m *Multipliers) Validate() error {
	for i := range m.Edge {
		for k, v := range m.Edge[i] {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("lagrange: edge multiplier (%d←%d) = %g", i, m.g.In(i)[k], v)
			}
		}
	}
	if m.Beta < 0 || m.Gamma < 0 {
		return fmt.Errorf("lagrange: negative scalar multiplier β=%g γ=%g", m.Beta, m.Gamma)
	}
	return nil
}

// diamond builds D → w1 → g1, g1 → {w2, w3} → g2, g2 → w4 → out.
func diamond(t testing.TB) (*circuit.Graph, map[string]int) {
	t.Helper()
	b := circuit.NewBuilder()
	d := b.AddDriver("D", 100)
	w1 := b.AddWire("w1", 1, 1, 0, 10, 1, 0.1, 10)
	g1 := b.AddGate("g1", 10, 0.2, 1, 0.1, 10)
	w2 := b.AddWire("w2", 1, 1, 0, 10, 1, 0.1, 10)
	w3 := b.AddWire("w3", 1, 1, 0, 10, 1, 0.1, 10)
	g2 := b.AddGate("g2", 10, 0.2, 1, 0.1, 10)
	w4 := b.AddWire("w4", 1, 1, 0, 10, 1, 0.1, 10)
	b.Connect(d, w1)
	b.Connect(w1, g1)
	b.Connect(g1, w2)
	b.Connect(g1, w3)
	b.Connect(w2, g2)
	b.Connect(w3, g2)
	b.Connect(g2, w4)
	b.MarkOutput(w4, 10)
	g, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := map[string]int{}
	for i := 0; i < g.NumNodes(); i++ {
		id[g.Comp(i).Name] = i
	}
	return g, id
}

func TestProjectFlowConservation(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 1)
	// Uniform init is not conserved at fan-out/fan-in nodes.
	if m.FlowImbalance() == 0 {
		t.Fatal("expected imbalance before projection")
	}
	m.ProjectFlow()
	if imb := m.FlowImbalance(); imb > 1e-12 {
		t.Fatalf("imbalance after projection = %g", imb)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProjectFlowPreservesSinkEdges(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 1)
	sink := g.SinkID()
	m.Edge[sink][0] = 7
	m.ProjectFlow()
	if m.Edge[sink][0] != 7 {
		t.Errorf("sink edge changed to %g during projection", m.Edge[sink][0])
	}
	// Total flow at every cut equals the sink flow.
	if got := m.SinkFlow(); got != 7 {
		t.Errorf("SinkFlow = %g, want 7", got)
	}
	sums := make([]float64, g.NumNodes())
	m.NodeSums(sums)
	// Driver's in-flow must equal total flow (single-path bottom).
	if d := sums[1]; math.Abs(d-7) > 1e-12 {
		t.Errorf("driver node sum = %g, want 7", d)
	}
}

func TestProjectFlowSplitsEvenlyFromZero(t *testing.T) {
	g, id := diamond(t)
	m := New(g, 0) // all zero
	sink := g.SinkID()
	m.Edge[sink][0] = 4
	m.ProjectFlow()
	if imb := m.FlowImbalance(); imb > 1e-12 {
		t.Fatalf("imbalance = %g", imb)
	}
	// g2 has two in-edges (w2, w3) that must split 2/2.
	g2 := id["g2"]
	if len(m.Edge[g2]) != 2 {
		t.Fatalf("g2 in-degree = %d", len(m.Edge[g2]))
	}
	if math.Abs(m.Edge[g2][0]-2) > 1e-12 || math.Abs(m.Edge[g2][1]-2) > 1e-12 {
		t.Errorf("g2 in-edges = %v, want [2 2]", m.Edge[g2])
	}
}

func TestProjectFlowZeroSinkKillsAll(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 3)
	sink := g.SinkID()
	m.Edge[sink][0] = 0
	m.ProjectFlow()
	sums := make([]float64, g.NumNodes())
	m.NodeSums(sums)
	for i := 1; i < g.NumNodes()-1; i++ {
		if sums[i] != 0 {
			t.Errorf("node %d sum = %g, want 0", i, sums[i])
		}
	}
}

func TestStepDelayDirections(t *testing.T) {
	g, id := diamond(t)
	m := New(g, 1)
	nn := g.NumNodes()
	a := make([]float64, nn)
	d := make([]float64, nn)
	// Fabricate arrivals: all delays 1, critical path through w2.
	for i := 1; i < nn-1; i++ {
		d[i] = 1
	}
	a[id["D"]] = 1
	a[id["w1"]] = 2
	a[id["g1"]] = 3
	a[id["w2"]] = 4
	a[id["w3"]] = 4.0 // tie
	a[id["g2"]] = 5
	a[id["w4"]] = 6
	a[g.SinkID()] = 6
	const a0 = 5.0 // violated by 1 ps at the sink
	before := m.Edge[g.SinkID()][0]
	m.StepDelayRange(a, d, a0, 0.5, 1, nn)
	after := m.Edge[g.SinkID()][0]
	// The step is A0-normalized: ρ·(6−5)/5 = 0.1.
	if math.Abs(after-(before+0.5*(6-5)/a0)) > 1e-12 {
		t.Errorf("sink edge %g -> %g, want +0.1", before, after)
	}
	// Tight component edges (a_j + D_i == a_i) unchanged; others shrink.
	w2 := id["w2"]
	if m.Edge[w2][0] != 1 { // a(g1)+D(w2)−a(w2) = 3+1−4 = 0
		t.Errorf("tight edge changed: %g", m.Edge[w2][0])
	}
	// Driver edge: D−a = 0 → unchanged.
	if m.Edge[id["D"]][0] != 1 {
		t.Errorf("driver edge changed: %g", m.Edge[id["D"]][0])
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStepDelayClampsAtZero(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 0) // from zero the trust corridor does not apply
	nn := g.NumNodes()
	a := make([]float64, nn)
	d := make([]float64, nn)
	// Negative slack on every edge, up to 0.8·A0: a step of ρ = 10 would
	// take every multiplier below zero, so each must clamp to exactly 0.
	for i := range a {
		a[i] = float64(i * 100)
	}
	m.StepDelayRange(a, d, 1000, 10, 1, nn)
	for i := 1; i < nn; i++ {
		for _, v := range m.Edge[i] {
			if v != 0 {
				t.Fatalf("multiplier %g, want 0", v)
			}
		}
	}
}

func TestStepDelayRelativeScaling(t *testing.T) {
	g, _ := diamond(t)
	sink := g.SinkID()
	nn := g.NumNodes()
	const a0 = 500.0
	// A sink violation of 500 ps is A0 itself, a normalized 1; one of
	// 2500 ps clamps to the same 1, so both step by exactly ρ.
	for _, arrival := range []float64{1000, 3000} {
		m := New(g, 1)
		a := make([]float64, nn)
		d := make([]float64, nn)
		for i := range a {
			a[i] = arrival
		}
		m.StepDelayRange(a, d, a0, 1, 1, nn)
		if rel := m.Edge[sink][0] - 1; math.Abs(rel-1) > 1e-9 {
			t.Errorf("arrival %g: relative update = %g, want 1", arrival, rel)
		}
	}
}

func TestStepScalar(t *testing.T) {
	if got := StepScalar(1, 10, 0.1, 100, 2); math.Abs(got-1.01) > 1e-12 {
		t.Errorf("relative StepScalar = %g, want 1.01", got)
	}
	// Trust corridor: a huge relative step saturates at ×trust / ÷trust.
	if got := StepScalar(1, 1e9, 1e9, 1, 2); got != 2 {
		t.Errorf("corridor up: got %g, want 2", got)
	}
	if got := StepScalar(1, -1e9, 1e9, 1, 2); got != 0.5 {
		t.Errorf("corridor down: got %g, want 0.5", got)
	}
	// Growth from zero stays additive, and a decrease from zero clamps.
	if got := StepScalar(0, 5, 1, 10, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("growth from zero: got %g, want 0.5", got)
	}
	if got := StepScalar(0, -5, 1, 10, 2); got != 0 {
		t.Errorf("clamp from zero: got %g, want 0", got)
	}
}

// TestStepBetaGamma: the scalar multipliers step through StepScalar with
// the Trust corridor, the default of 2 when Trust is unset.
func TestStepBetaGamma(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 0)
	m.Beta, m.Gamma = 1, 1
	// A violation of 3× the bound clamps to 1; a ρ of 5 would reach 6, and
	// the default corridor stops it at 2.
	m.StepBeta(300, 5, 100)
	// Slack of a quarter of the bound at ρ = 2: 1 − 0.5 = 0.5, exactly the
	// default corridor's floor.
	m.StepGamma(-25, 2, 100)
	if m.Beta != 2 || m.Gamma != 0.5 {
		t.Errorf("default corridor: β = %g, γ = %g, want 2 and 0.5", m.Beta, m.Gamma)
	}
	m.Trust = 1.25
	m.StepBeta(300, 5, 100)
	m.StepGamma(-25, 2, 100)
	if m.Beta != 2.5 || m.Gamma != 0.4 {
		t.Errorf("Trust 1.25: β = %g, γ = %g, want 2.5 and 0.4", m.Beta, m.Gamma)
	}
}

// TestScaleAll: scaling moves every multiplier along the ray t·μ, so flow
// conservation survives it and a scale by 1/t undoes a scale by t.
func TestScaleAll(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 1.5)
	m.ProjectFlow()
	m.Beta, m.Gamma = 3, 0.25
	snap := make([][]float64, len(m.Edge))
	for i := range m.Edge {
		snap[i] = append([]float64(nil), m.Edge[i]...)
	}
	m.ScaleAll(4)
	if m.Beta != 12 || m.Gamma != 1 {
		t.Errorf("scalars after ×4: β = %g, γ = %g, want 12 and 1", m.Beta, m.Gamma)
	}
	for i := range m.Edge {
		for k, v := range m.Edge[i] {
			if v != 4*snap[i][k] {
				t.Errorf("edge (%d, %d) = %g, want %g", i, k, v, 4*snap[i][k])
			}
		}
	}
	if imb := m.FlowImbalance(); imb > 1e-12 {
		t.Errorf("imbalance after scaling = %g", imb)
	}
	m.ScaleAll(0.25)
	for i := range m.Edge {
		for k, v := range m.Edge[i] {
			if v != snap[i][k] {
				t.Errorf("edge (%d, %d) = %g after ×4 then ×¼, want %g", i, k, v, snap[i][k])
			}
		}
	}
}

// Property: after any random non-negative perturbation followed by
// ProjectFlow, conservation holds and all multipliers stay non-negative.
func TestPropertyProjectionInvariants(t *testing.T) {
	g, _ := diamond(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(g, 0)
		for i := 1; i < g.NumNodes(); i++ {
			for k := range m.Edge[i] {
				m.Edge[i][k] = rng.Float64() * 10
			}
		}
		m.ProjectFlow()
		if m.FlowImbalance() > 1e-9 {
			return false
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: projection is idempotent.
func TestPropertyProjectionIdempotent(t *testing.T) {
	g, _ := diamond(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(g, 0)
		for i := 1; i < g.NumNodes(); i++ {
			for k := range m.Edge[i] {
				m.Edge[i][k] = rng.Float64() * 5
			}
		}
		m.ProjectFlow()
		snap := make([][]float64, len(m.Edge))
		for i := range m.Edge {
			snap[i] = append([]float64(nil), m.Edge[i]...)
		}
		m.ProjectFlow()
		for i := range m.Edge {
			for k := range m.Edge[i] {
				if math.Abs(m.Edge[i][k]-snap[i][k]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 1)
	if m.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

// TestDelayGradNormSqInto: a DelayGradFillRange pass split into shards,
// filled in any order into a scratch buffer of garbage, folds through
// DelayGradNormSqFrom to the same total, bit for bit, as one serial pass
// into a fresh buffer, and the fill allocates nothing.
func TestDelayGradNormSqInto(t *testing.T) {
	g, _ := diamond(t)
	m := New(g, 0.8)
	nn := g.NumNodes()
	a := make([]float64, nn)
	d := make([]float64, nn)
	for i := 0; i < nn; i++ {
		a[i] = float64(i) * 1.7
		d[i] = 1 + float64(i%4)
	}
	serial := make([]float64, nn)
	m.DelayGradFillRange(a, d, 9, serial, 1, nn)
	want := DelayGradNormSqFrom(serial[1:nn])
	if want <= 0 {
		t.Fatalf("serial total %g, want a positive norm", want)
	}
	scratch := make([]float64, nn)
	for i := range scratch {
		scratch[i] = math.NaN() // any garbage must be overwritten
	}
	mid := nn / 2
	m.DelayGradFillRange(a, d, 9, scratch, mid, nn)
	m.DelayGradFillRange(a, d, 9, scratch, 1, mid)
	if got := DelayGradNormSqFrom(scratch[1:nn]); got != want {
		t.Errorf("sharded total = %.17g, want %.17g", got, want)
	}
	// Allocation-free on the hot path.
	allocs := testing.AllocsPerRun(50, func() {
		m.DelayGradFillRange(a, d, 9, scratch, 1, nn)
	})
	if allocs != 0 {
		t.Errorf("DelayGradFillRange allocates %.0f objects per call", allocs)
	}
}

// TestDelayGradFillSkipsSlackZeroEdges: an edge with slack contributes to
// the norm only while its multiplier is positive (a zero multiplier on a
// slack edge is at the projection's boundary, where the projected
// subgradient is zero); a violated edge always contributes.
func TestDelayGradFillSkipsSlackZeroEdges(t *testing.T) {
	g, id := diamond(t)
	nn := g.NumNodes()
	a := make([]float64, nn)
	d := make([]float64, nn)
	g2 := id["g2"]
	// g2's in-edges: from w2 slack by 2 ps (a(w2) + D(g2) − a(g2) = −2)
	// and from w3 violated by 1 ps (+1).
	d[g2] = 1
	a[g2] = 5
	a[id["w2"]] = 2
	a[id["w3"]] = 5
	const a0 = 2.0
	dst := make([]float64, nn)
	m := New(g, 1)
	m.DelayGradFillRange(a, d, a0, dst, g2, g2+1)
	if want := 1.0 + 0.25; dst[g2] != want { // (−2/2)² + (1/2)²
		t.Errorf("positive multipliers: contribution %g, want %g", dst[g2], want)
	}
	m.Edge[g2][0], m.Edge[g2][1] = 0, 0
	m.DelayGradFillRange(a, d, a0, dst, g2, g2+1)
	if want := 0.25; dst[g2] != want { // the slack edge is skipped
		t.Errorf("zero multipliers: contribution %g, want %g", dst[g2], want)
	}
}

// TestValidateRejects: Validate flags a negative or NaN edge multiplier
// and a negative scalar multiplier.
func TestValidateRejects(t *testing.T) {
	g, id := diamond(t)
	for name, poison := range map[string]func(*Multipliers){
		"negative edge":  func(m *Multipliers) { m.Edge[id["g2"]][1] = -1 },
		"NaN edge":       func(m *Multipliers) { m.Edge[id["w1"]][0] = math.NaN() },
		"negative beta":  func(m *Multipliers) { m.Beta = -0.5 },
		"negative gamma": func(m *Multipliers) { m.Gamma = -2 },
	} {
		m := New(g, 1)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: clean multipliers rejected: %v", name, err)
		}
		poison(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

package baseline

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/coupling"
	"repro/internal/rc"
)

func chain(t testing.TB) (*circuit.Graph, map[string]int) {
	t.Helper()
	b := circuit.NewBuilder()
	d := b.AddDriver("D", 100)
	w := b.AddWire("w", 10, 2, 0.1, 50, 1, 0.1, 10)
	g := b.AddGate("g", 20, 0.5, 4, 0.1, 10)
	w2 := b.AddWire("w2", 5, 1, 0.05, 25, 1, 0.1, 10)
	b.Connect(d, w)
	b.Connect(w, g)
	b.Connect(g, w2)
	b.MarkOutput(w2, 10)
	gr, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := map[string]int{}
	for i := 0; i < gr.NumNodes(); i++ {
		id[gr.Comp(i).Name] = i
	}
	return gr, id
}

func newEval(t testing.TB, g *circuit.Graph) *rc.Evaluator {
	t.Helper()
	cs, err := coupling.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestUniformMetrics(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g)
	m1 := Uniform(ev, 1)
	// Area at x=1: α sum = 1+4+1 = 6.
	if math.Abs(m1.Area-6) > 1e-9 {
		t.Errorf("Area = %g, want 6", m1.Area)
	}
	// Power cap: (2+0.5+1)·1 + fringes 0.15 = 3.65.
	if math.Abs(m1.PowerCapFF-3.65) > 1e-9 {
		t.Errorf("PowerCap = %g, want 3.65", m1.PowerCapFF)
	}
	m2 := Uniform(ev, 0.1)
	if m2.Area >= m1.Area {
		t.Errorf("smaller uniform size should shrink area: %g vs %g", m2.Area, m1.Area)
	}
	// Clamping: huge size hits the upper bound 10.
	m3 := Uniform(ev, 1e9)
	if math.Abs(m3.Area-60) > 1e-9 {
		t.Errorf("clamped area = %g, want 60", m3.Area)
	}
}

func TestTILOSMeetsFeasibleBound(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g)
	res, err := TILOS(ev, TILOSOptions{A0: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("TILOS failed to meet feasible bound: delay %g", res.DelayPs)
	}
	if res.DelayPs > 2.0 {
		t.Errorf("Met=true but delay %g > 2.0", res.DelayPs)
	}
	if res.Moves == 0 {
		t.Error("bound requires upsizing; expected at least one move")
	}
}

func TestTILOSStopsOnInfeasible(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g)
	res, err := TILOS(ev, TILOSOptions{A0: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Error("claimed to meet an impossible 0.001 ps bound")
	}
}

func TestTILOSRespectsBounds(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g)
	res, err := TILOS(ev, TILOSOptions{A0: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < g.NumNodes()-1; i++ {
		c := g.Comp(i)
		if !c.Kind.Sizable() {
			continue
		}
		if res.X[i] < c.Lo-1e-12 || res.X[i] > c.Hi+1e-12 {
			t.Errorf("x(%s) = %g outside [%g,%g]", c.Name, res.X[i], c.Lo, c.Hi)
		}
	}
}

func TestTILOSRejectsBadTarget(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g)
	if _, err := TILOS(ev, TILOSOptions{}); err == nil {
		t.Error("zero delay target accepted")
	}
}

// TestLRBeatsOrMatchesTILOS: the optimal LR sizer should never need more
// area than the greedy heuristic for the same bound.
func TestLRBeatsOrMatchesTILOS(t *testing.T) {
	g, _ := chain(t)
	const a0 = 2.0
	evT := newEval(t, g)
	tilos, err := TILOS(evT, TILOSOptions{A0: a0})
	if err != nil {
		t.Fatal(err)
	}
	if !tilos.Met {
		t.Fatal("TILOS could not meet the bound")
	}
	evL := newEval(t, g)
	lr, err := DelayOnlyLR(evL, a0)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Converged {
		t.Fatalf("LR did not converge: %+v", lr)
	}
	if lr.Area > tilos.Area*1.01 {
		t.Errorf("LR area %g worse than TILOS %g", lr.Area, tilos.Area)
	}
}

func TestDelayOnlyLRDisablesNoiseAndPower(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g)
	res, err := DelayOnlyLR(ev, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NoiseViolation != 0 || res.PowerViolation != 0 {
		t.Error("disabled constraints should report zero violation")
	}
	if res.DelayPs > 2.0*1.02 {
		t.Errorf("delay %g misses bound", res.DelayPs)
	}
}

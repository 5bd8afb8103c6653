package core

import (
	"math"
	"testing"
)

// TestPerNetNoiseBound exercises the distributed-crosstalk extension the
// paper sketches in Section 4.1: bounding one victim wire's own coupling
// (rather than the circuit total) must shrink that wire while the delay
// target is still met via the gate.
func TestPerNetNoiseBound(t *testing.T) {
	g, id, cs := coupledVictim(t)
	const a0 = 3.0
	// Reference: delay-only sizing establishes the natural per-net level.
	ev1 := newEval(t, g, cs)
	sol1, err := NewSolver(ev1, DefaultOptions(a0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sol1.Run()
	if err != nil {
		t.Fatal(err)
	}
	w1 := id["w1"]
	// N_v at the delay-only solution (ĉ·(x_v + x_nbr), one pair here).
	p := cs.Pairs()[0]
	natural := p.Weight * p.CHat() * (res1.X[p.I] + res1.X[p.J])
	if natural <= 0 {
		t.Fatal("bad reference per-net noise")
	}

	opt := DefaultOptions(a0, 0, 0)
	opt.PerNetNoiseBounds = map[int]float64{w1: 0.7 * natural}
	ev2 := newEval(t, g, cs)
	sol2, err := NewSolver(ev2, opt)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sol2.Run()
	if err != nil {
		t.Fatal(err)
	}
	finalN := p.Weight * p.CHat() * (res2.X[p.I] + res2.X[p.J])
	if finalN > 0.7*natural*1.03 {
		t.Errorf("per-net noise %g exceeds bound %g", finalN, 0.7*natural)
	}
	if res2.DelayPs > a0*1.03 {
		t.Errorf("delay %g exceeds bound %g under per-net constraint", res2.DelayPs, a0)
	}
	if res2.X[w1] >= res1.X[w1] {
		t.Errorf("victim wire did not shrink: %g -> %g", res1.X[w1], res2.X[w1])
	}
	if res2.PerNetNoiseViolation > 0.03*0.7*natural {
		t.Errorf("reported per-net violation %g too large", res2.PerNetNoiseViolation)
	}
}

// TestPerNetComposesWithGlobal verifies per-net and global noise bounds
// can be active together.
func TestPerNetComposesWithGlobal(t *testing.T) {
	g, id, cs := coupledVictim(t)
	const a0 = 3.0
	ev1 := newEval(t, g, cs)
	sol1, err := NewSolver(ev1, DefaultOptions(a0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sol1.Run()
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(a0, 0.8*res1.NoiseLinFF+cs.ConstantOffset(), 0)
	opt.PerNetNoiseBounds = map[int]float64{id["w1"]: 0.75 * res1.NoiseLinFF}
	ev2 := newEval(t, g, cs)
	sol2, err := NewSolver(ev2, opt)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sol2.Run()
	if err != nil {
		t.Fatal(err)
	}
	xPrime := sol2.xBound
	if res2.NoiseLinFF > xPrime*1.03 {
		t.Errorf("global noise %g exceeds X' %g", res2.NoiseLinFF, xPrime)
	}
	if res2.PerNetNoiseViolation > 0.03*0.75*res1.NoiseLinFF {
		t.Errorf("per-net violation %g with composed bounds", res2.PerNetNoiseViolation)
	}
}

func TestPerNetBoundValidation(t *testing.T) {
	g, id, cs := coupledVictim(t)
	cases := []struct {
		name   string
		bounds map[int]float64
	}{
		{"gate node", map[int]float64{id["g"]: 1}},
		{"uncoupled wire", map[int]float64{id["w2"]: 1}},
		{"non-positive", map[int]float64{id["w1"]: 0}},
		{"out of range", map[int]float64{-3: 1}},
	}
	for _, c := range cases {
		opt := DefaultOptions(3.0, 0, 0)
		opt.PerNetNoiseBounds = c.bounds
		ev := newEval(t, g, cs)
		if _, err := NewSolver(ev, opt); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestPerNetLooseBoundInactive: a generous per-net bound must not change
// the delay-only solution.
func TestPerNetLooseBoundInactive(t *testing.T) {
	g, id, cs := coupledVictim(t)
	const a0 = 3.0
	run := func(bounds map[int]float64) *Result {
		opt := DefaultOptions(a0, 0, 0)
		opt.PerNetNoiseBounds = bounds
		ev := newEval(t, g, cs)
		sol, err := NewSolver(ev, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sol.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	loose := run(map[int]float64{id["w1"]: 1e9})
	if math.Abs(base.Area-loose.Area) > 0.02*base.Area {
		t.Errorf("loose per-net bound changed the solution: %g vs %g", base.Area, loose.Area)
	}
}

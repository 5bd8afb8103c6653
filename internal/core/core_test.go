package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/coupling"
	"repro/internal/lagrange"
	"repro/internal/rc"
)

func emptySet(t testing.TB) *coupling.Set {
	t.Helper()
	s, err := coupling.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chain: D(100Ω) → w → g → w2 → 10fF load, three sizable components.
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

// coupledVictim builds an asymmetric instance where the noise constraint
// can bind feasibly: the critical path D1 → w1 → g → w2 → 15fF has a
// coupled wire w1 whose width the noise bound caps, while the gate g offers
// an alternative (uncoupled) lever to keep meeting the delay bound. The
// aggressor stub D2 → w1b → 2fF is non-critical and sits at minimum size.
func coupledVictim(t testing.TB) (*circuit.Graph, map[string]int, *coupling.Set) {
	t.Helper()
	b := circuit.NewBuilder()
	d1 := b.AddDriver("D1", 150)
	d2 := b.AddDriver("D2", 150)
	w1 := b.AddWire("w1", 80, 2, 0.1, 100, 1, 0.1, 10)
	g := b.AddGate("g", 20, 0.5, 2, 0.1, 10)
	w2 := b.AddWire("w2", 5, 1, 0.05, 25, 1, 0.1, 10)
	w1b := b.AddWire("w1b", 10, 1, 0.1, 100, 1, 0.1, 10)
	b.Connect(d1, w1)
	b.Connect(w1, g)
	b.Connect(g, w2)
	b.Connect(d2, w1b)
	b.MarkOutput(w2, 15)
	b.MarkOutput(w1b, 2)
	gr, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := map[string]int{}
	for i := 0; i < gr.NumNodes(); i++ {
		id[gr.Comp(i).Name] = i
	}
	i, j := id["w1"], id["w1b"]
	if i > j {
		i, j = j, i
	}
	cs, err := coupling.NewSet([]coupling.Pair{{I: i, J: j, CTilde: 8, Dist: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return gr, id, cs
}

func newEval(t testing.TB, g *circuit.Graph, cs *coupling.Set) *rc.Evaluator {
	t.Helper()
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestLooseBoundsGiveMinimumArea(t *testing.T) {
	g, id := chain(t)
	ev := newEval(t, g, emptySet(t))
	sol, err := NewSolver(ev, DefaultOptions(1e9, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: gap %g after %d iterations", res.Gap, res.Iterations)
	}
	for _, name := range []string{"w", "g", "w2"} {
		if x := res.X[id[name]]; math.Abs(x-0.1) > 1e-6 {
			t.Errorf("x(%s) = %g, want lower bound 0.1 (loose constraints)", name, x)
		}
	}
	if res.DelayViolation != 0 || res.PowerViolation != 0 || res.NoiseViolation != 0 {
		t.Errorf("violations on loose problem: %+v", res)
	}
}

// gridSearchChain minimizes area over a size grid subject to delay ≤ a0,
// the reference optimum for Theorem 7 checks.
func gridSearchChain(t testing.TB, g *circuit.Graph, id map[string]int, a0 float64) (bestArea float64, bestX []float64) {
	t.Helper()
	ev := newEval(t, g, emptySet(t))
	bestArea = math.Inf(1)
	x := make([]float64, g.NumNodes())
	// Log-spaced grid over [0.1, 10]: 0.1·(10^(i/20)) for i = 0..40.
	grid := make([]float64, 0, 41)
	for i := 0; i <= 40; i++ {
		grid = append(grid, 0.1*math.Pow(10, float64(i)/20))
	}
	for _, xw := range grid {
		for _, xg := range grid {
			for _, xw2 := range grid {
				x[id["w"]], x[id["g"]], x[id["w2"]] = xw, xg, xw2
				ev.SetSizes(x)
				ev.Recompute()
				if ev.MaxArrival() > a0 {
					continue
				}
				if a := ev.Area(); a < bestArea {
					bestArea = a
					bestX = append(bestX[:0], ev.X...)
				}
			}
		}
	}
	return bestArea, bestX
}

// TestOGWSMatchesBruteForce is the Theorem-7 check: on a tiny instance the
// LR solution must essentially reach the global optimum found by grid
// search.
func TestOGWSMatchesBruteForce(t *testing.T) {
	g, id := chain(t)
	// Pick a binding delay bound: below the min-size delay (≈2.8 ps).
	const a0 = 2.0
	refArea, refX := gridSearchChain(t, g, id, a0)
	if math.IsInf(refArea, 1) {
		t.Fatal("grid search found no feasible point; bound too tight")
	}
	ev := newEval(t, g, emptySet(t))
	sol, err := NewSolver(ev, DefaultOptions(a0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: gap %g after %d iterations", res.Gap, res.Iterations)
	}
	// Within 5% of the grid optimum (the grid itself is ~12% resolution).
	if res.Area > refArea*1.05 {
		t.Errorf("OGWS area %g vs grid optimum %g (x=%v, grid x=%v)",
			res.Area, refArea, res.X, refX)
	}
	// Delay essentially feasible.
	if res.DelayPs > a0*1.02 {
		t.Errorf("delay %g exceeds bound %g by more than 2%%", res.DelayPs, a0)
	}
}

// TestWeakDuality: the dual value never exceeds the constrained optimum.
func TestWeakDuality(t *testing.T) {
	g, id := chain(t)
	const a0 = 2.0
	refArea, _ := gridSearchChain(t, g, id, a0)
	ev := newEval(t, g, emptySet(t))
	opt := DefaultOptions(a0, 0, 0)
	var hist []IterStats
	opt.OnIteration = func(p IterProgress) { hist = append(hist, p.IterStats) }
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range hist {
		if h.Dual > refArea*1.005 { // tiny slack for grid resolution
			t.Fatalf("iteration %d: dual %g exceeds optimum %g (weak duality)", h.K, h.Dual, refArea)
		}
	}
}

func TestDelayBoundDrivesUpsizing(t *testing.T) {
	g, id := chain(t)
	ev := newEval(t, g, emptySet(t))
	sol, err := NewSolver(ev, DefaultOptions(2.0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The gate must be upsized beyond minimum to meet 2.0 ps.
	if res.X[id["g"]] < 0.12 {
		t.Errorf("x(g) = %g; expected upsizing beyond 0.1 for the binding delay bound", res.X[id["g"]])
	}
	if res.DelayPs > 2.0*1.02 {
		t.Errorf("delay %g not meeting bound 2.0", res.DelayPs)
	}
}

func TestNoiseConstraintBinds(t *testing.T) {
	g, id, cs := coupledVictim(t)
	const a0 = 3.0
	// Unconstrained (delay-only) run to find the natural noise level.
	ev1 := newEval(t, g, cs)
	sol1, err := NewSolver(ev1, DefaultOptions(a0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sol1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Converged {
		t.Fatalf("delay-only run did not converge: %+v", res1)
	}
	if res1.X[id["w1"]] < 0.3 {
		t.Fatalf("test premise broken: delay bound did not upsize the coupled wire (x=%g)", res1.X[id["w1"]])
	}
	// Now bound the noise at 70% of the delay-only level. The gate can
	// absorb the delay burden, so this stays feasible.
	xPrime := 0.7 * res1.NoiseLinFF
	noiseBound := xPrime + cs.ConstantOffset()
	ev2 := newEval(t, g, cs)
	sol2, err := NewSolver(ev2, DefaultOptions(a0, noiseBound, 0))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sol2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.NoiseLinFF > xPrime*1.03 {
		t.Errorf("noise %g exceeds bound %g (converged=%v gap=%g)", res2.NoiseLinFF, xPrime, res2.Converged, res2.Gap)
	}
	if res2.DelayPs > a0*1.03 {
		t.Errorf("delay %g exceeds bound %g under noise constraint", res2.DelayPs, a0)
	}
	// The coupled wire shrank and the gate grew to compensate.
	if res2.X[id["w1"]] >= res1.X[id["w1"]] {
		t.Errorf("coupled wire did not shrink: %g -> %g", res1.X[id["w1"]], res2.X[id["w1"]])
	}
	if res2.X[id["g"]] <= res1.X[id["g"]]*1.01 {
		t.Errorf("gate did not absorb the delay burden: %g -> %g", res1.X[id["g"]], res2.X[id["g"]])
	}
}

// powerChain has a genuine area-versus-power trade-off: the long resistive
// wire w (power-hungry per µm: ĉ=2, but area-cheap: α=1) and the gate g
// (power-cheap: ĉ=0.5, area-expensive: α=8) are coupled levers — upsizing g
// speeds the output stage but loads w — so a power cap shifts the balance
// away from the area-optimal split.
func powerChain(t testing.TB) (*circuit.Graph, map[string]int) {
	t.Helper()
	b := circuit.NewBuilder()
	d := b.AddDriver("D", 50)
	w := b.AddWire("w", 200, 2, 0.1, 200, 1, 0.1, 10)
	g := b.AddGate("g", 20, 0.5, 8, 0.1, 10)
	w2 := b.AddWire("w2", 5, 1, 0.05, 25, 1, 0.1, 10)
	b.Connect(d, w)
	b.Connect(w, g)
	b.Connect(g, w2)
	b.MarkOutput(w2, 20)
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

func TestPowerConstraintBinds(t *testing.T) {
	g, id := powerChain(t)
	const a0 = 3.0
	ev1 := newEval(t, g, emptySet(t))
	sol1, err := NewSolver(ev1, DefaultOptions(a0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sol1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Converged {
		t.Fatalf("delay-only run did not converge: %+v", res1)
	}
	// Cap the switched capacitance below the delay-only level; grid
	// search confirms this remains feasible before asserting.
	pBound := 0.9 * res1.PowerCapFF
	refArea := gridSearchChainConstrained(t, g, id, a0, pBound)
	if math.IsInf(refArea, 1) {
		t.Fatalf("test premise broken: power bound %g infeasible", pBound)
	}
	ev2 := newEval(t, g, emptySet(t))
	sol2, err := NewSolver(ev2, DefaultOptions(a0, 0, pBound))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sol2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.PowerCapFF > pBound*1.03 {
		t.Errorf("power cap %g exceeds bound %g (converged=%v)", res2.PowerCapFF, pBound, res2.Converged)
	}
	if res2.DelayPs > a0*1.03 {
		t.Errorf("delay %g exceeds bound %g under power constraint", res2.DelayPs, a0)
	}
	if res2.PowerCapFF >= res1.PowerCapFF {
		t.Errorf("power constraint had no effect")
	}
}

// gridSearchChainConstrained minimizes area over the chain's size grid
// subject to delay ≤ a0 and total capacitance ≤ pBound.
func gridSearchChainConstrained(t testing.TB, g *circuit.Graph, id map[string]int, a0, pBound float64) float64 {
	t.Helper()
	ev := newEval(t, g, emptySet(t))
	best := math.Inf(1)
	x := make([]float64, g.NumNodes())
	grid := make([]float64, 0, 41)
	for i := 0; i <= 40; i++ {
		grid = append(grid, 0.1*math.Pow(10, float64(i)/20))
	}
	for _, xw := range grid {
		for _, xg := range grid {
			for _, xw2 := range grid {
				x[id["w"]], x[id["g"]], x[id["w2"]] = xw, xg, xw2
				ev.SetSizes(x)
				ev.Recompute()
				if ev.MaxArrival() > a0 || ev.TotalCap() > pBound {
					continue
				}
				if a := ev.Area(); a < best {
					best = a
				}
			}
		}
	}
	return best
}

// TestLRSFixedPoint: at the LRS solution, re-evaluating Theorem 5's formula
// reproduces the sizes (KKT condition (5)).
func TestLRSFixedPoint(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g, emptySet(t))
	opt := DefaultOptions(2.0, 0, 100) // power constraint on so β is active
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	sol.mult = lagrange.New(g, 1)
	sol.mult.ProjectFlow()
	sol.mult.Beta, sol.mult.Gamma = 0.5, 0
	sol.mult.NodeSums(sol.lambda)
	sol.LRS()
	// Recompute opt_i at the converged state and verify self-consistency.
	ev.Recompute()
	ev.UpstreamResistance(sol.lambda, sol.rup)
	for i := 1; i < g.NumNodes()-1; i++ {
		c := g.Comp(i)
		if !c.Kind.Sizable() {
			continue
		}
		num := sol.lambda[i] * sol.rEff[i] * (ev.CPr[i] + 0)
		den := c.AreaCoeff + (0.5+sol.rup[i])*c.CUnit
		want := math.Sqrt(num / den)
		want = math.Min(c.Hi, math.Max(c.Lo, want))
		if math.Abs(want-ev.X[i]) > 1e-4*want {
			t.Errorf("node %d (%s): x = %g, Theorem-5 fixed point = %g", i, c.Name, ev.X[i], want)
		}
	}
}

func TestSolverRejectsBadOptions(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g, emptySet(t))
	if _, err := NewSolver(ev, Options{A0: 0}); err == nil {
		t.Error("A0=0 accepted")
	}
}

func TestInfeasibleNoiseBoundRejected(t *testing.T) {
	g, _, cs := coupledVictim(t)
	ev := newEval(t, g, cs)
	// Bound below the constant offset Σc̃ = 8.
	if _, err := NewSolver(ev, DefaultOptions(3.0, 4, 0)); err == nil {
		t.Error("noise bound below constant offset accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	g, _ := chain(t)
	run := func() *Result {
		ev := newEval(t, g, emptySet(t))
		sol, err := NewSolver(ev, DefaultOptions(2.0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sol.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Iterations != b.Iterations || a.Area != b.Area || a.Gap != b.Gap {
		t.Errorf("nondeterministic runs: %+v vs %+v", a, b)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("size %d differs between runs", i)
		}
	}
}

// TestS1ResetsOncePerRun: S1 runs once, at the top of Run, and every LRS
// call after it starts from the sizes the previous call left. So on a
// fresh evaluator, whose sizes start at the lower bounds, a WarmStart
// false Run is the WarmStart true Run bit for bit. And after a warm Run
// has moved the sizes, a cold Run on the same solver resets them and
// matches a fresh solver's cold Run: the reset is Run's, not the
// evaluator's starting state.
func TestS1ResetsOncePerRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t testing.TB) *rc.Evaluator
		opt   Options
	}{
		{"chain", chainEval, DefaultOptions(2.0, 0, 0)},
		{"coupled", coupledEval, DefaultOptions(3.0, 14, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newSolver := func(warm bool) *Solver {
				opt := tc.opt
				opt.MaxIterations = 25
				opt.WarmStart = warm
				sol, err := NewSolver(tc.build(t), opt)
				if err != nil {
					t.Fatal(err)
				}
				return sol
			}
			run := func(sol *Solver) *Result {
				res, err := sol.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			cold := run(newSolver(false))
			if warm := run(newSolver(true)); !reflect.DeepEqual(cold, warm) {
				t.Fatalf("cold and warm Runs from the lower bounds differ:\ncold %+v\nwarm %+v", cold, warm)
			}

			sol := newSolver(true)
			moved := run(sol)
			g := sol.ev.Graph()
			atFloor := true
			for _, i := range sol.sizable {
				atFloor = atFloor && moved.X[i] == g.Comp(int(i)).Lo
			}
			if atFloor {
				t.Fatal("the warm Run left every size at its lower bound; the fixture shows nothing")
			}
			sol.opt.WarmStart = false
			if again := run(sol); !reflect.DeepEqual(cold, again) {
				t.Errorf("cold Run after a warm one differs from a fresh cold Run:\nfresh %+v\nagain %+v", cold, again)
			}
		})
	}
}

func TestSizesStayWithinBounds(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g, emptySet(t))
	sol, err := NewSolver(ev, DefaultOptions(1.5, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < g.NumNodes()-1; i++ {
		c := g.Comp(i)
		if !c.Kind.Sizable() {
			continue
		}
		if res.X[i] < c.Lo-1e-12 || res.X[i] > c.Hi+1e-12 {
			t.Errorf("x(%s) = %g outside [%g, %g]", c.Name, res.X[i], c.Lo, c.Hi)
		}
	}
}

// TestHistoryRecorded: OnIteration delivers one IterStats per iteration,
// numbered from 1, each with a positive area and at least one LRS sweep.
func TestHistoryRecorded(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g, emptySet(t))
	opt := DefaultOptions(2.0, 0, 0)
	var hist []IterStats
	opt.OnIteration = func(p IterProgress) { hist = append(hist, p.IterStats) }
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != res.Iterations {
		t.Errorf("history has %d entries for %d iterations", len(hist), res.Iterations)
	}
	for i, h := range hist {
		if h.K != i+1 || h.Area <= 0 || h.LRSSweeps <= 0 {
			t.Errorf("bad history entry %d: %+v", i, h)
		}
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g, emptySet(t))
	sol, err := NewSolver(ev, DefaultOptions(2.0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryBytes <= 0 {
		t.Error("MemoryBytes not positive")
	}
}

// TestBoundsAccessor checks the internal bounds NewSolver derives: X′ is
// X_B less the constant coupling offset, and P′ is the power bound as
// given.
func TestBoundsAccessor(t *testing.T) {
	g, _, cs := coupledVictim(t)
	ev := newEval(t, g, cs)
	sol, err := NewSolver(ev, DefaultOptions(3.0, 20, 100))
	if err != nil {
		t.Fatal(err)
	}
	xp, pp := sol.xBound, sol.pBound
	if math.Abs(xp-(20-cs.ConstantOffset())) > 1e-12 {
		t.Errorf("X' = %g, want %g", xp, 20-cs.ConstantOffset())
	}
	if pp != 100 {
		t.Errorf("P' = %g, want 100", pp)
	}
}

// TestOnIterationHook pins the progress hook's contract: one call per
// iteration in order, non-negative violations, per-iteration
// evaluation-work deltas that sum to the cumulative counters, and — the
// determinism clause — a solve with the hook installed is bit-identical
// to one without.
func TestOnIterationHook(t *testing.T) {
	g, _, cs := coupledVictim(t)

	run := func(hook bool) (*Result, []IterProgress) {
		ev := newEval(t, g, cs)
		opt := DefaultOptions(3.0, 14, 0)
		var got []IterProgress
		if hook {
			opt.OnIteration = func(p IterProgress) { got = append(got, p) }
		}
		sol, err := NewSolver(ev, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sol.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, got
	}

	plain, _ := run(false)
	hooked, prog := run(true)

	// Determinism: the hook must not perturb a single bit.
	if len(plain.X) != len(hooked.X) {
		t.Fatalf("X length differs: %d vs %d", len(plain.X), len(hooked.X))
	}
	for i := range plain.X {
		if plain.X[i] != hooked.X[i] {
			t.Fatalf("X[%d] differs with hook installed: %g vs %g", i, plain.X[i], hooked.X[i])
		}
	}
	if plain.Iterations != hooked.Iterations || plain.Gap != hooked.Gap {
		t.Fatalf("trajectory differs: %d/%g vs %d/%g",
			plain.Iterations, plain.Gap, hooked.Iterations, hooked.Gap)
	}

	// One call per iteration, in order.
	if len(prog) != hooked.Iterations {
		t.Fatalf("hook fired %d times for %d iterations", len(prog), hooked.Iterations)
	}
	for i, p := range prog {
		if p.K != i+1 {
			t.Errorf("call %d reports iteration %d", i, p.K)
		}
		if p.DelayViolation < 0 || p.PowerViolation < 0 || p.NoiseViolation < 0 ||
			math.IsNaN(p.Feasibility) || p.Feasibility < 0 {
			t.Errorf("iteration %d: negative/NaN violation fields: %+v", i, p)
		}
		if p.Eval.NodeVisits() <= 0 {
			t.Errorf("iteration %d: empty eval delta", i)
		}
	}

	// The per-iteration deltas partition the work: summed, they cannot
	// exceed the evaluator's cumulative counters (setup work before the
	// first iteration is outside the deltas).
	var sum int64
	for _, p := range prog {
		sum += p.Eval.NodeVisits()
	}
	if sum <= 0 {
		t.Fatalf("eval deltas sum to %d", sum)
	}
}

// TestEvalStatsSub pins the snapshot-delta helper field-by-field, and
// Add as its inverse on every field.
func TestEvalStatsSub(t *testing.T) {
	a := rc.EvalStats{FullRecomputes: 5, IncRecomputes: 3, ElectricalNodes: 100, UpstreamNodes: 7}
	b := rc.EvalStats{FullRecomputes: 2, IncRecomputes: 1, ElectricalNodes: 40, UpstreamNodes: 7}
	d := a.Sub(b)
	if d.FullRecomputes != 3 || d.IncRecomputes != 2 || d.ElectricalNodes != 60 || d.UpstreamNodes != 0 {
		t.Fatalf("Sub = %+v", d)
	}
	if z := a.Sub(a); z != (rc.EvalStats{}) {
		t.Fatalf("a.Sub(a) = %+v", z)
	}
	// Every counter distinct, so a field Add or Sub drops cannot cancel out.
	var full, part rc.EvalStats
	fv, pv := reflect.ValueOf(&full).Elem(), reflect.ValueOf(&part).Elem()
	for i := 0; i < fv.NumField(); i++ {
		fv.Field(i).SetInt(int64(1000 + 37*i))
		pv.Field(i).SetInt(int64(1 + 3*i))
	}
	if got := full.Sub(part).Add(part); got != full {
		t.Fatalf("a.Sub(b).Add(b) = %+v, want %+v", got, full)
	}
}

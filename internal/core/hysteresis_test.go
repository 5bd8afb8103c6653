package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/coupling"
	"repro/internal/rc"
)

// denseCoupledEval builds a one-level mesh whose wires are all coupled to
// their neighbours: every sweep of a warm-started solve moves essentially
// every node (coupling ties each wire's Theorem-5 inputs to its
// neighbours), so the dirty set blows past the coneWorthwhile cutover
// sweep after sweep — the grid32x24 regression in miniature.
func denseCoupledEval(t testing.TB, width int) *rc.Evaluator {
	t.Helper()
	b := circuit.NewBuilder()
	wires := make([]int, width)
	for i := 0; i < width; i++ {
		d := b.AddDriver("D", 100+float64(i%5)*10)
		w := b.AddWire("w", 10+float64(i%3), 2, 0.1, 50+float64(i%7)*5, 1, 0.1, 10)
		g := b.AddGate("g", 20, 0.5, 3, 0.1, 10)
		w2 := b.AddWire("w2", 5, 1, 0.05, 25, 1, 0.1, 10)
		b.Connect(d, w)
		b.Connect(w, g)
		b.Connect(g, w2)
		b.MarkOutput(w2, 8)
		wires[i] = w
	}
	g, id, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var pairs []coupling.Pair
	for i := 0; i+1 < width; i++ {
		pi, pj := id[wires[i]], id[wires[i+1]]
		if pi > pj {
			pi, pj = pj, pi
		}
		pairs = append(pairs, coupling.Pair{I: pi, J: pj, CTilde: 5, Dist: 2, Weight: 1})
	}
	cs, err := coupling.NewSet(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return newEval(t, g, cs)
}

// denseOptions derives binding delay/noise bounds from a unit-size probe
// of the fixture (the benchmark scenarios' recipe), so the multipliers
// keep moving and every LRS call does real work.
func denseOptions(t testing.TB, mutate func(*Options)) Options {
	t.Helper()
	probe := denseCoupledEval(t, 10)
	probe.SetAllSizes(1)
	probe.Recompute()
	a0 := probe.MaxArrival()
	probe.SetAllSizes(0.1)
	probe.Recompute()
	noise := 1.25*probe.NoiseLinear() + probe.Couplings().ConstantOffset()
	opt := DefaultOptions(a0, noise, 0)
	opt.MaxIterations = 50
	opt.WarmStart = true
	if mutate != nil {
		mutate(&opt)
	}
	return opt
}

// solveDense runs one solve of the dense fixture with cutover hysteresis
// k (cutoverHysteresis for the default, 0 for the full-pass reference).
func solveDense(t *testing.T, k int, mutate func(*Options)) (*Result, *Solver, *rc.Evaluator) {
	t.Helper()
	ev := denseCoupledEval(t, 10)
	sol, err := NewSolver(ev, denseOptions(t, mutate))
	if err != nil {
		t.Fatal(err)
	}
	sol.SetHysteresis(k)
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, sol, ev
}

// TestHysteresisBitIdentical is the headline-bugfix contract: on a
// dense-coupling solve the cutover hysteresis must trip, stop the
// dirty-set bookkeeping, and still reproduce — bit for bit — both the
// hysteresis-free incremental solve (K < 0) and the full-pass reference
// (K = 0). The revert is a scheduling decision, never a numerical one.
func TestHysteresisBitIdentical(t *testing.T) {
	trip, tripSol, tripEv := solveDense(t, 2, nil)
	if tripSol.HysteresisTrips() == 0 {
		t.Fatalf("dense-coupling solve never tripped the K=2 hysteresis (streak accounting broken)")
	}
	if tripSol.RevertedSweeps() == 0 {
		t.Fatalf("tripped solve recorded no reverted sweeps")
	}
	noHyst, noSol, noEv := solveDense(t, -1, nil)
	if noSol.HysteresisTrips() != 0 || noSol.RevertedSweeps() != 0 {
		t.Fatalf("disabled hysteresis still tripped: %d trips, %d reverted sweeps",
			noSol.HysteresisTrips(), noSol.RevertedSweeps())
	}
	full, _, _ := solveDense(t, 0, nil)
	if !reflect.DeepEqual(trip, noHyst) {
		t.Errorf("hysteresis revert changed the result:\ntripped %+v\nno-hyst %+v", trip, noHyst)
	}
	if !reflect.DeepEqual(trip, full) {
		t.Errorf("hysteresis revert diverged from the full-pass reference:\ntripped %+v\nfull    %+v", trip, full)
	}
	// The whole point: the tripped solve pays fewer incremental calls than
	// the hysteresis-free one (bookkeeping stops), while executing the
	// same sweeps.
	if tripEv.Stats().IncRecomputes >= noEv.Stats().IncRecomputes &&
		tripEv.Stats().DegradedRecomputes >= noEv.Stats().DegradedRecomputes {
		t.Errorf("tripped solve still paid full bookkeeping: %+v vs %+v", tripEv.Stats(), noEv.Stats())
	}
}

// TestHysteresisDoesNotTripOnLocalConvergence: the parallel-chains fixture
// converges by shrinking cones — exactly the workload the incremental
// engine exists for. The default K must leave it untouched, or the PR-3
// win evaporates.
func TestHysteresisDoesNotTripOnLocalConvergence(t *testing.T) {
	ev := parallelChains(t, 24)
	opt := DefaultOptions(45, 0, 0)
	opt.MaxIterations = 60
	opt.WarmStart = true
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.Run(); err != nil {
		t.Fatal(err)
	}
	if sol.HysteresisTrips() != 0 {
		t.Errorf("default hysteresis (K=%d) tripped on a cone-friendly solve after %d reverted sweeps",
			cutoverHysteresis, sol.RevertedSweeps())
	}
}

// TestRunFromSeedIndependentWithS1: without WarmStart the paper's S1 reset
// makes the OGWS trajectory independent of the evaluator's sizes, so
// RunFrom must be bit-identical to Run from any (valid) seed.
func TestRunFromSeedIndependentWithS1(t *testing.T) {
	ref, _, _ := solveDense(t, cutoverHysteresis, func(o *Options) { o.WarmStart = false })
	ev := denseCoupledEval(t, 10)
	seed := make([]float64, len(ev.X))
	g := ev.Graph()
	for i := range seed {
		if c := g.Comp(i); c.Kind.Sizable() {
			seed[i] = c.Lo + 0.37*(c.Hi-c.Lo)*float64(i%4)/3
		}
	}
	sol, err := NewSolver(ev, denseOptions(t, func(o *Options) { o.WarmStart = false }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.RunFrom(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Errorf("RunFrom changed an S1-reset trajectory:\nrun     %+v\nrunFrom %+v", ref, res)
	}
}

// TestRunFromWarmStartIsPerturbation: seeding a WarmStart solve with its
// own minimizer must re-converge with no more work than the cold solve —
// the sweep engine's warm-start premise — and still match the full-pass
// reference bit for bit. So must a RunFromDual chain that seeds each solve
// with the sizes and dual of the one before, at moving bounds, as the
// cells of a sweep row do: at every link, on the default schedule and
// with the hysteresis off.
func TestRunFromWarmStartIsPerturbation(t *testing.T) {
	cold, _, ev := solveDense(t, cutoverHysteresis, nil)
	sol, err := NewSolver(ev, denseOptions(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sol.RunFrom(cold.X)
	if err != nil {
		t.Fatal(err)
	}
	if warm.LRSSweepsTotal > cold.LRSSweepsTotal {
		t.Errorf("solve seeded at the minimizer used more sweeps than the cold solve: %d > %d",
			warm.LRSSweepsTotal, cold.LRSSweepsTotal)
	}
	// Reference: the same warm-started solve on full passes.
	evFull := denseCoupledEval(t, 10)
	solFull, err := NewSolver(evFull, denseOptions(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	solFull.SetHysteresis(0)
	warmFull, err := solFull.RunFrom(cold.X)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, warmFull) {
		t.Errorf("warm-started incremental solve diverged from its full-pass reference:\ninc  %+v\nfull %+v", warm, warmFull)
	}

	// runChain solves the delay-scale row on one evaluator with hysteresis k,
	// each link a fresh solver seeded from its predecessor.
	runChain := func(k int) ([]*Result, []*DualState, rc.EvalStats) {
		ev := denseCoupledEval(t, 10)
		x, dual := append([]float64(nil), ev.X...), (*DualState)(nil)
		var results []*Result
		var duals []*DualState
		for _, scale := range []float64{1, 1.05, 1.1} {
			sol, err := NewSolver(ev, denseOptions(t, func(o *Options) { o.A0 *= scale }))
			if err != nil {
				t.Fatal(err)
			}
			sol.SetHysteresis(k)
			res, err := sol.RunFromDual(x, dual)
			if err != nil {
				t.Fatal(err)
			}
			x, dual = res.X, sol.DualState()
			results, duals = append(results, res), append(duals, dual)
		}
		return results, duals, ev.Stats()
	}
	refRes, refDual, refSt := runChain(0)
	if refSt.IncRecomputes != 0 {
		t.Errorf("the full-pass reference chain walked %d cones", refSt.IncRecomputes)
	}
	for _, k := range []int{cutoverHysteresis, -1} {
		res, dual, st := runChain(k)
		for i := range res {
			if !reflect.DeepEqual(res[i], refRes[i]) || !reflect.DeepEqual(dual[i], refDual[i]) {
				t.Errorf("K=%d: chain link %d diverged from the full-pass reference:\ninc  %+v\nfull %+v", k, i, res[i], refRes[i])
			}
		}
		if k < 0 && st.IncRecomputes == 0 {
			t.Errorf("K=%d: the chain never refreshed a cone, so it did not exercise the engine", k)
		}
	}
}

// TestRunFromRejectsBadSeeds: length and finiteness are checked before any
// size changes.
func TestRunFromRejectsBadSeeds(t *testing.T) {
	ev := denseCoupledEval(t, 4)
	sol, err := NewSolver(ev, denseOptions(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.RunFrom(make([]float64, 3)); err == nil {
		t.Error("short seed accepted")
	}
	bad := make([]float64, len(ev.X))
	for i := range bad {
		bad[i] = 1
	}
	g := ev.Graph()
	for i := 0; i < g.NumNodes(); i++ {
		if g.Comp(i).Kind.Sizable() {
			bad[i] = math.NaN()
			break
		}
	}
	if _, err := sol.RunFrom(bad); err == nil {
		t.Error("NaN seed accepted")
	}
}

// TestOptionsNormalizationTable pins the validate() audit: the solve
// budget falls back to its defaults on zero/negative/NaN input, a negative
// noise or power bound stays (it disables the constraint), and the knobs
// with no substitute
// (A0, the noise and power bounds) reject NaN and +Inf outright, as does
// an infinite Epsilon, which would certify the first iterate.
func TestOptionsNormalizationTable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Options)
		check  func(Options) (got, want float64)
	}{
		{"epsilon-zero", func(o *Options) { o.Epsilon = 0 }, func(o Options) (float64, float64) { return o.Epsilon, 0.01 }},
		{"epsilon-nan", func(o *Options) { o.Epsilon = nan }, func(o Options) (float64, float64) { return o.Epsilon, 0.01 }},
		// A negative noise or power bound, −Inf included, disables it.
		{"noise-negative", func(o *Options) { o.NoiseBound = -1 }, func(o Options) (float64, float64) { return o.NoiseBound, -1 }},
		{"power-negative-inf", func(o *Options) { o.PowerCapBound = math.Inf(-1) }, func(o Options) (float64, float64) {
			return o.PowerCapBound, math.Inf(-1)
		}},
		{"maxiter-negative", func(o *Options) { o.MaxIterations = -1 }, func(o Options) (float64, float64) {
			return float64(o.MaxIterations), 1000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions(50, 0, 0)
			tc.mutate(&opt)
			if err := opt.validate(); err != nil {
				t.Fatalf("validate rejected a normalizable option: %v", err)
			}
			if got, want := tc.check(opt); got != want {
				t.Errorf("normalized to %g, want %g", got, want)
			}
		})
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"a0-nan", func(o *Options) { o.A0 = nan }},
		{"a0-zero", func(o *Options) { o.A0 = 0 }},
		{"a0-inf", func(o *Options) { o.A0 = inf }},
		{"noise-nan", func(o *Options) { o.NoiseBound = nan }},
		{"noise-inf", func(o *Options) { o.NoiseBound = inf }},
		{"power-nan", func(o *Options) { o.PowerCapBound = nan }},
		{"power-inf", func(o *Options) { o.PowerCapBound = inf }},
		{"epsilon-inf", func(o *Options) { o.Epsilon = inf }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions(50, 0, 0)
			tc.mutate(&opt)
			if err := opt.validate(); err == nil {
				t.Error("validate accepted an unrecoverable option")
			}
		})
	}
}

// TestPerNetNaNBoundRejected: a NaN or +Inf per-net bound slides through
// a plain <= 0 check; NewSolver must reject it like the other bad bounds.
func TestPerNetNaNBoundRejected(t *testing.T) {
	g, id, cs := coupledVictim(t)
	for _, xb := range []float64{math.NaN(), math.Inf(1)} {
		opt := DefaultOptions(120, 18, 0)
		opt.PerNetNoiseBounds = map[int]float64{id["w1"]: xb}
		if _, err := NewSolver(newEval(t, g, cs), opt); err == nil {
			t.Errorf("per-net noise bound %g accepted", xb)
		}
	}
}

// TestRunFromDualConvergesFaster: re-solving from a neighbour's primal
// AND dual state must certify convergence in no more iterations than the
// cold ascent — the sweep engine's cells/sec win — and reproduce a valid
// result.
func TestRunFromDualConvergesFaster(t *testing.T) {
	// A noise bound at 1.5× the floor converges; the tighter hysteresis
	// fixture bound does not in any iteration budget.
	loosen := func(o *Options) { o.MaxIterations = 400; o.NoiseBound *= 1.2 }
	cold, sol, _ := solveDense(t, cutoverHysteresis, loosen)
	if !cold.Converged {
		t.Fatalf("cold dense solve did not converge in 400 iterations (gap %g)", cold.Gap)
	}
	dual := sol.DualState()
	if dual == nil {
		t.Fatal("DualState nil after Run")
	}
	ev := denseCoupledEval(t, 10)
	loX := append([]float64(nil), ev.X...) // the cold solve's starting point
	sol2, err := NewSolver(ev, denseOptions(t, loosen))
	if err != nil {
		t.Fatal(err)
	}
	if sol2.DualState() != nil {
		t.Error("DualState non-nil before the first Run")
	}
	warm, err := sol2.RunFromDual(cold.X, dual)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatalf("dual-seeded solve did not converge (gap %g)", warm.Gap)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("dual-seeded solve took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	// One-shot seed: re-solving from the cold starting point (sizes reset,
	// no dual) must replay the cold trajectory exactly — the PR-1 re-Run
	// idempotency with the seeding path in the loop.
	again, err := sol2.RunFromDual(loX, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Errorf("re-Run after RunFromDual diverged from the cold trajectory")
	}
}

// TestRunFromDualRejectsForeignState: a snapshot from a different circuit
// must be rejected before it can corrupt the multipliers.
func TestRunFromDualRejectsForeignState(t *testing.T) {
	_, sol, _ := solveDense(t, cutoverHysteresis, nil)
	dual := sol.DualState()
	g, _ := chain(t)
	other, err := NewSolver(newEval(t, g, emptySet(t)), DefaultOptions(50, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]float64, g.NumNodes())
	if _, err := other.RunFromDual(seed, dual); err == nil {
		t.Error("foreign dual state accepted")
	}
}

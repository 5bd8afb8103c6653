package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rc"
)

// solveWith runs one full OGWS solve on a fresh chain/coupled evaluator.
func solveWith(t *testing.T, build func(t testing.TB) *rc.Evaluator, mutate func(*Options)) *Result {
	t.Helper()
	ev := build(t)
	opt := DefaultOptions(50, 0, 0)
	opt.MaxIterations = 40
	if mutate != nil {
		mutate(&opt)
	}
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func coupledEval(t testing.TB) *rc.Evaluator {
	g, _, cs := coupledVictim(t)
	return newEval(t, g, cs)
}

func chainEval(t testing.TB) *rc.Evaluator {
	g, _ := chain(t)
	return newEval(t, g, emptySet(t))
}

// TestIncrementalSolveBitIdentical is the tentpole contract at the solver
// level: with ActiveSetTol = 0 the active-set/dirty-cone path must
// reproduce the paper-faithful full-pass path bit for bit — same sizes,
// same iteration and sweep counts, same dual, same gap — across circuit
// shapes, warm/cold starts, noise/power constraint mixes, and widths.
func TestIncrementalSolveBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		build  func(t testing.TB) *rc.Evaluator
		mutate func(*Options)
	}{
		{"chain-loose", chainEval, nil},
		{"chain-warm", chainEval, func(o *Options) { o.WarmStart = true }},
		{"coupled-bounds", coupledEval, func(o *Options) {
			o.A0 = 120
			o.NoiseBound = 18
			o.PowerCapBound = 60
		}},
		{"coupled-warm-undamped", coupledEval, func(o *Options) {
			o.A0 = 120
			o.NoiseBound = 18
			o.WarmStart = true
			o.LRSDamping = 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := solveWith(t, tc.build, func(o *Options) {
				o.Incremental = false
				if tc.mutate != nil {
					tc.mutate(o)
				}
			})
			for _, w := range []int{1, 4} {
				inc := solveWith(t, tc.build, func(o *Options) {
					o.Incremental = true
					o.Workers = w
					if tc.mutate != nil {
						tc.mutate(o)
					}
				})
				if !reflect.DeepEqual(full, inc) {
					t.Errorf("workers=%d: incremental result diverged from full passes:\nfull %+v\ninc  %+v", w, full, inc)
				}
			}
		})
	}
}

// parallelChains builds `paths` independent driver→wire→gate→wire→output
// chains with per-path electrical variation: the structure late-sweep
// locality thrives on, since each path converges on its own schedule and a
// settled path's cones never reawaken.
func parallelChains(t testing.TB, paths int) *rc.Evaluator {
	t.Helper()
	b := circuit.NewBuilder()
	for p := 0; p < paths; p++ {
		d := b.AddDriver("D", 80+float64(p%7)*15)
		w1 := b.AddWire("w1", 8+float64(p%5)*3, 1.5, 0.1, 40, 1, 0.1, 10)
		g1 := b.AddGate("g1", 18+float64(p%4)*6, 0.5, 3, 0.1, 10)
		w2 := b.AddWire("w2", 6, 1, 0.05, 30, 1, 0.1, 10)
		b.Connect(d, w1)
		b.Connect(w1, g1)
		b.Connect(g1, w2)
		b.MarkOutput(w2, 6+float64(p%3)*2)
	}
	g, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return newEval(t, g, emptySet(t))
}

// TestIncrementalSkipsWork asserts the engine actually does less
// evaluation work than the full path on a warm-started, delay-bound solve
// — the "do less work" point of the whole construction. (Measured ~3.2x
// on this fixture; the committed BenchmarkIncrementalSolve tracks the
// c880 and grid numbers.)
func TestIncrementalSkipsWork(t *testing.T) {
	run := func(incremental bool) int64 {
		ev := parallelChains(t, 24)
		opt := DefaultOptions(45, 0, 0) // 45 ps binds every chain
		opt.MaxIterations = 60
		opt.WarmStart = true
		opt.Incremental = incremental
		sol, err := NewSolver(ev, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer sol.Close()
		ev.ResetStats()
		if _, err := sol.Run(); err != nil {
			t.Fatal(err)
		}
		return ev.Stats().NodeVisits()
	}
	fullWork := run(false)
	incWork := run(true)
	if incWork*2 >= fullWork {
		t.Errorf("incremental executed %d bodies, full %d — expected at least a 2x reduction", incWork, fullWork)
	}
}

// TestOneArrivalPassPerIteration: the LRS sweeps refresh loads only, so an
// OGWS iteration pays exactly one arrival pass, the LRS call's final full
// Recompute, whichever refresh path the sweeps take.
func TestOneArrivalPassPerIteration(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		ev := parallelChains(t, 24)
		var prog []IterProgress
		// 3.5 ps binds every chain (about 4.3 ps at the floor): seven
		// iterations, and warm sweeps walk cones on the incremental path.
		opt := DefaultOptions(3.5, 0, 0)
		opt.MaxIterations = 60
		opt.WarmStart = true
		opt.Incremental = incremental
		opt.OnIteration = func(p IterProgress) { prog = append(prog, p) }
		sol, err := NewSolver(ev, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sol.Run(); err != nil {
			t.Fatal(err)
		}
		sol.Close()
		if len(prog) < 3 {
			t.Fatalf("incremental=%v: %d iterations, want a fixture that runs several", incremental, len(prog))
		}
		want := int64(ev.Graph().NumNodes() - 2)
		for _, p := range prog {
			if p.Eval.ArrivalNodes != want {
				t.Errorf("incremental=%v iteration %d: %d arrival bodies over %d sweeps, want %d",
					incremental, p.K, p.Eval.ArrivalNodes, p.LRSSweeps, want)
			}
		}
	}
}

// TestActiveSetTolApproximate: a positive tolerance is allowed to change
// low-order bits but must still deliver a finite, feasible-quality result
// whose metrics were evaluated by a full pass on the actual sizes.
func TestActiveSetTolApproximate(t *testing.T) {
	exact := solveWith(t, coupledEval, func(o *Options) {
		o.A0 = 120
		o.NoiseBound = 18
	})
	loose := solveWith(t, coupledEval, func(o *Options) {
		o.A0 = 120
		o.NoiseBound = 18
		o.ActiveSetTol = 1e-4
	})
	for _, v := range []float64{loose.Area, loose.DelayPs, loose.Gap, loose.Dual} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("ActiveSetTol produced non-finite result: %+v", loose)
		}
	}
	if loose.Converged != exact.Converged {
		t.Logf("tolerance changed convergence: exact %v, loose %v", exact.Converged, loose.Converged)
	}
	if rel := math.Abs(loose.Area-exact.Area) / exact.Area; rel > 0.05 {
		t.Errorf("ActiveSetTol=1e-4 moved the area by %.2f%% — tolerance leaking far past its scale", 100*rel)
	}
}

// TestIncrementalRunIdempotent: re-running one incremental solver must
// replay the identical trajectory (the PR-1 idempotency contract now
// includes the dirty bookkeeping).
func TestIncrementalRunIdempotent(t *testing.T) {
	ev := coupledEval(t)
	opt := DefaultOptions(120, 18, 60)
	opt.MaxIterations = 25
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	first, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("re-Run diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestOptionsActiveSetValidation: negative/NaN tolerances normalize to 0.
func TestOptionsActiveSetValidation(t *testing.T) {
	g, _ := chain(t)
	ev := newEval(t, g, emptySet(t))
	opt := DefaultOptions(50, 0, 0)
	opt.ActiveSetTol = -3
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	if sol.opt.ActiveSetTol != 0 {
		t.Errorf("negative ActiveSetTol normalized to %g, want 0", sol.opt.ActiveSetTol)
	}
	opt.ActiveSetTol = math.NaN()
	sol2, err := NewSolver(newEval(t, g, emptySet(t)), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol2.Close()
	if sol2.opt.ActiveSetTol != 0 {
		t.Errorf("NaN ActiveSetTol normalized to %g, want 0", sol2.opt.ActiveSetTol)
	}
}

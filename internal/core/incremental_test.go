package core

import (
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rc"
)

// solveWith runs one full OGWS solve on a fresh chain/coupled evaluator
// with cutover hysteresis k (0 for the full-pass reference).
func solveWith(t *testing.T, build func(t testing.TB) *rc.Evaluator, k int, mutate func(*Options)) *Result {
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
	sol.SetHysteresis(k)
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
// level: the active-set/dirty-cone path must reproduce the paper-faithful
// full-pass path bit for bit — same sizes,
// same iteration and sweep counts, same dual, same gap — across circuit
// shapes, warm/cold starts and noise/power constraint mixes.
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
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := solveWith(t, tc.build, 0, tc.mutate)
			inc := solveWith(t, tc.build, cutoverHysteresis, tc.mutate)
			if !reflect.DeepEqual(full, inc) {
				t.Errorf("incremental result diverged from full passes:\nfull %+v\ninc  %+v", full, inc)
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

// TestOneArrivalPassPerIteration: the LRS sweeps refresh loads only, so an
// OGWS iteration pays exactly one arrival pass, the LRS call's final full
// Recompute, whichever refresh path the sweeps take (K = 0 is the full-pass
// reference).
func TestOneArrivalPassPerIteration(t *testing.T) {
	for _, k := range []int{0, cutoverHysteresis} {
		ev := parallelChains(t, 24)
		var prog []IterProgress
		// 3.5 ps binds every chain (about 4.3 ps at the floor): seven
		// iterations, and warm sweeps walk cones on the incremental path.
		opt := DefaultOptions(3.5, 0, 0)
		opt.MaxIterations = 60
		opt.WarmStart = true
		opt.OnIteration = func(p IterProgress) { prog = append(prog, p) }
		sol, err := NewSolver(ev, opt)
		if err != nil {
			t.Fatal(err)
		}
		sol.SetHysteresis(k)
		if _, err := sol.Run(); err != nil {
			t.Fatal(err)
		}
		if len(prog) < 3 {
			t.Fatalf("K=%d: %d iterations, want a fixture that runs several", k, len(prog))
		}
		want := int64(ev.Graph().NumNodes() - 2)
		for _, p := range prog {
			if p.Eval.ArrivalNodes != want {
				t.Errorf("K=%d iteration %d: %d arrival bodies over %d sweeps, want %d",
					k, p.K, p.Eval.ArrivalNodes, p.LRSSweeps, want)
			}
		}
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

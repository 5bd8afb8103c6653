package bench

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rc"
)

// planMesh is the small coupled mesh the kernel and runner tests solve.
func planMesh(t *testing.T) (*Instance, Bounds) {
	t.Helper()
	inst, b, err := GridInstance(6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	return inst, b
}

// scaledBounds is b with the delay bound relaxed by factor f, so cells of
// one plan solve distinct problems.
func scaledBounds(b Bounds, f float64) Bounds {
	b.A0 *= f
	return b
}

// TestSolveCellMatchesSolver pins the kernel against a direct
// core.Solver run: the same bits from the same options, the dual only on
// request, and eval counters that are this solve's
// alone even on an evaluator an earlier solve used.
func TestSolveCellMatchesSolver(t *testing.T) {
	inst, b := planMesh(t)
	opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	opt.MaxIterations, opt.WarmStart = 6, true
	ref, err := inst.Replica()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.NewSolver(ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sol.RunFromDual(inst.Eval.X, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDual := sol.DualState()

	ev, err := inst.Replica()
	if err != nil {
		t.Fatal(err)
	}
	before := ev.Stats()
	got, err := SolveCell(ev, b, inst.Eval.X, nil, CellOptions{MaxIterations: 6, ReturnDual: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got.Result) || !reflect.DeepEqual(wantDual, got.Dual) {
		t.Error("SolveCell diverged from a direct solver run")
	}
	if got.SolveSec <= 0 || got.Eval != ev.Stats().Sub(before) {
		t.Errorf("first solve's time or eval counters are off: %+v", got)
	}

	// A second solve on the same evaluator counts only its own work, and
	// keeps no dual unless asked.
	before = ev.Stats()
	again, err := SolveCell(ev, scaledBounds(b, 1.1), got.Result.X, got.Dual, CellOptions{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if again.Dual != nil {
		t.Error("a solve that did not ask for its dual kept one")
	}
	if again.Eval != ev.Stats().Sub(before) || again.Eval.NodeVisits() == 0 {
		t.Errorf("second solve's eval counters %+v are not its own delta", again.Eval)
	}

	if _, err := SolveCell(ev, Bounds{A0: -1}, inst.Eval.X, nil, CellOptions{}); err == nil {
		t.Error("SolveCell accepted a negative delay bound")
	}
	if _, err := SolveCell(ev, b, inst.Eval.X, nil, CellOptions{Cancel: func() bool { return true }}); !errors.Is(err, core.ErrCancelled) {
		t.Errorf("cancelled SolveCell returned %v, want core.ErrCancelled", err)
	}
}

// TestRunPlanReleasesWaitingBatch pins the wait rule: a batch waiting on a
// cell starts the moment that cell lands, not when the seed cell's batch
// ends. The chain's second cell is observed only after the waiting batch's
// cell has been, which cannot happen if the waiting batch starts late. The
// waiting cell starts from its seed cell's sizes and dual, bit for bit.
func TestRunPlanReleasesWaitingBatch(t *testing.T) {
	inst, b := planMesh(t)
	seedCell := 0
	plan := Plan{
		{Chain: true, Duals: true, Seed: inst.Eval.X, MaxIterations: 4, Cells: []Cell{
			{Index: 0, Bounds: b}, {Index: 1, Bounds: scaledBounds(b, 1.05)}, {Index: 2, Bounds: scaledBounds(b, 1.1)},
		}},
		{MaxIterations: 4, After: &seedCell, Cells: []Cell{{Index: 3, Bounds: scaledBounds(b, 1.2)}}},
	}
	released := make(chan struct{})
	var order []int
	var mu sync.Mutex
	solved, err := inst.RunPlan(plan, Schedule{Concurrent: 2, Observe: func(i int, _ *Solved) {
		if i == 1 {
			select {
			case <-released:
			case <-time.After(time.Minute):
				t.Error("the waiting batch did not start when its seed cell landed")
			}
		}
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		if i == 3 {
			close(released)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("observed cells %v, want %v", order, want)
	}
	// Cell 1's dual seeded only cell 2, so the run did not keep it; cell 0
	// seeded a waiting batch and cell 2 ends the chain.
	if solved[0].Dual == nil || solved[1].Dual != nil || solved[2].Dual == nil {
		t.Errorf("kept duals: cell 0 %v, 1 %v, 2 %v; want cells 0 and 2 only",
			solved[0].Dual != nil, solved[1].Dual != nil, solved[2].Dual != nil)
	}

	ev, err := inst.Replica()
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveCell(ev, scaledBounds(b, 1.2), solved[0].Result.X, solved[0].Dual, CellOptions{MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Result, solved[3].Result) {
		t.Error("the waiting cell did not start from its seed cell's sizes and dual")
	}
}

// TestRunPlanObservesInIndexOrder: an independent batch fanned out over
// four slots is observed in index order, one call at a time, and solves
// the same bits as a one-slot run.
func TestRunPlanObservesInIndexOrder(t *testing.T) {
	inst, b := planMesh(t)
	p := rc.Perturb{R: 1.1, C: 0.95, Threshold: 1.05}
	batch := Batch{Seed: inst.Eval.X, MaxIterations: 4}
	for i := 0; i < 6; i++ {
		c := Cell{Index: i, Bounds: scaledBounds(b, 1+0.04*float64(i))}
		if i%2 == 1 {
			c.Perturb = &p
		}
		batch.Cells = append(batch.Cells, c)
	}
	ref, err := inst.RunPlan(Plan{batch}, Schedule{Concurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Int32
	next := 0
	got, err := inst.RunPlan(Plan{batch}, Schedule{Concurrent: 4, Observe: func(i int, s *Solved) {
		if n := inFlight.Add(1); n > 1 {
			t.Errorf("%d Observe calls in flight, want 1", n)
		}
		if i != next || s.Result == nil {
			t.Errorf("observed cell %d (result %v), want cell %d", i, s.Result != nil, next)
		}
		next++
		inFlight.Add(-1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(batch.Cells) {
		t.Errorf("observed %d cells, want %d", next, len(batch.Cells))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Result, got[i].Result) {
			t.Errorf("cell %d diverged between one and four slots", i)
		}
	}
}

// TestRunPlanLowestIndexError: with cells failing in two batches, the run
// returns the lowest failing cell's error at every width and observes no
// cell of a batch past its failure, and one slot starts none.
func TestRunPlanLowestIndexError(t *testing.T) {
	inst, b := planMesh(t)
	plan := Plan{
		{Seed: inst.Eval.X, MaxIterations: 3, Cells: []Cell{
			{Index: 0, Bounds: b}, {Index: 1, Bounds: b}, {Index: 2, Bounds: Bounds{A0: -1}}, {Index: 3, Bounds: b},
		}},
		{Chain: true, Seed: inst.Eval.X, MaxIterations: 3, Cells: []Cell{
			{Index: 4, Bounds: b}, {Index: 5, Bounds: Bounds{A0: b.A0, NoiseBound: math.NaN()}}, {Index: 6, Bounds: b},
		}},
	}
	for _, slots := range []int{1, 2, 4} {
		var mu sync.Mutex
		observed := map[int]bool{}
		started := map[int]bool{}
		_, err := inst.RunPlan(plan, Schedule{
			Concurrent: slots,
			OnIteration: func(i int, _ core.IterProgress) {
				mu.Lock()
				started[i] = true
				mu.Unlock()
			},
			Observe: func(i int, _ *Solved) {
				mu.Lock()
				observed[i] = true
				mu.Unlock()
			},
		})
		if err == nil || !strings.Contains(err.Error(), "delay bound A0") {
			t.Errorf("slots %d: run returned %v, want cell 2's delay-bound error", slots, err)
		}
		if observed[3] || observed[5] || observed[6] {
			t.Errorf("slots %d: observed cells past a failure: %v", slots, observed)
		}
		if slots == 1 && (started[3] || started[6]) {
			t.Errorf("slots %d: started cells past a failure: %v", slots, started)
		}
	}
}

// TestRunPlanCancel: a Cancel that fires stops the run at the next cell
// with core.ErrCancelled, and one that never fires changes no bit.
func TestRunPlanCancel(t *testing.T) {
	inst, b := planMesh(t)
	batch := Batch{Chain: true, Seed: inst.Eval.X, MaxIterations: 4}
	for i := 0; i < 4; i++ {
		batch.Cells = append(batch.Cells, Cell{Index: i, Bounds: scaledBounds(b, 1+0.05*float64(i))})
	}
	var landed atomic.Int32
	_, err := inst.RunPlan(Plan{batch}, Schedule{
		Cancel:  func() bool { return landed.Load() >= 2 },
		Observe: func(int, *Solved) { landed.Add(1) },
	})
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want core.ErrCancelled", err)
	}
	if n := landed.Load(); n != 2 {
		t.Errorf("%d cells landed, want the 2 before Cancel fired", n)
	}

	ref, err := inst.RunPlan(Plan{batch}, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	idle, err := inst.RunPlan(Plan{batch}, Schedule{Cancel: func() bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Result, idle[i].Result) {
			t.Errorf("an idle Cancel hook changed cell %d", i)
		}
	}
}

// TestPlanSize pins the shape check every runner applies before it
// solves anything.
func TestPlanSize(t *testing.T) {
	p := rc.Nominal()
	one, three := 1, 3
	cases := []struct {
		name    string
		plan    Plan
		n       int
		wantErr string
	}{
		{"dense", Plan{{Cells: []Cell{{Index: 1}, {Index: 0}}}, {After: &one, Cells: []Cell{{Index: 2}}}}, 3, ""},
		{"repeated index", Plan{{Cells: []Cell{{Index: 0}, {Index: 0}}}}, 0, "repeated"},
		{"index out of range", Plan{{Cells: []Cell{{Index: 0}, {Index: 2}}}}, 0, "out of range"},
		{"empty batch", Plan{{Cells: []Cell{{Index: 0}}}, {}}, 0, "no cells"},
		{"waits on a later batch", Plan{{After: &one, Cells: []Cell{{Index: 0}}}, {Cells: []Cell{{Index: 1}}}}, 0, "earlier batch"},
		{"waits outside the plan", Plan{{Cells: []Cell{{Index: 0}}}, {After: &three, Cells: []Cell{{Index: 1}}}}, 0, "earlier batch"},
		{"perturbed chain", Plan{{Chain: true, Cells: []Cell{{Index: 0, Perturb: &p}}}}, 0, "chain"},
	}
	for _, tc := range cases {
		n, err := tc.plan.Size()
		if tc.wantErr == "" {
			if err != nil || n != tc.n {
				t.Errorf("%s: Size() = %d, %v; want %d", tc.name, n, err, tc.n)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Size() error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
	inst, _ := planMesh(t)
	if _, err := inst.RunPlan(Plan{{Cells: []Cell{{Index: 1}}}}, Schedule{}); err == nil {
		t.Error("RunPlan ran a plan Size rejects")
	}
}

package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/coupling"
	"repro/internal/fanout"
	"repro/internal/rc"
)

// meshCircuit builds a deterministic width×layers gate/wire mesh with
// neighbour couplings — a mid-size instance (hundreds of nodes) that
// exercises fan-in > 1, fan-out > 1, coupled wires, and enough components
// for the pool to shard for real.
func meshCircuit(t testing.TB, width, layers int) (*circuit.Graph, *coupling.Set) {
	t.Helper()
	b := circuit.NewBuilder()
	prev := make([]int, width)
	for i := 0; i < width; i++ {
		prev[i] = b.AddDriver("D", 80+float64(7*i%40))
	}
	wires := make([][]int, layers) // builder ids, per layer
	for l := 0; l < layers; l++ {
		wires[l] = make([]int, width)
		for i := 0; i < width; i++ {
			w := b.AddWire("w",
				8+float64((l*7+i*3)%13),    // rUnit
				1+0.5*float64((i+l)%4),     // cUnit
				0.05+0.01*float64(i%5),     // fringe
				30+float64((l*11+i*17)%60), // length
				1, 0.1, 10)
			b.Connect(prev[i], w)
			wires[l][i] = w
		}
		for i := 0; i < width; i++ {
			g := b.AddGate("g",
				15+float64((l*5+i*2)%20), // rUnit
				0.4+0.1*float64((l+i)%3), // cUnit
				2+float64((i*3+l)%5),     // areaCoeff
				0.1, 10)
			b.Connect(wires[l][i], g)
			b.Connect(wires[l][(i+1)%width], g)
			prev[i] = g
		}
	}
	for i := 0; i < width; i++ {
		w := b.AddWire("wo", 6, 1, 0.05, 25, 1, 0.1, 10)
		b.Connect(prev[i], w)
		b.MarkOutput(w, 4+float64(i%3))
	}
	g, id, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var pairs []coupling.Pair
	for l := 0; l < layers; l++ {
		for i := 0; i+1 < width; i++ {
			pi, pj := id[wires[l][i]], id[wires[l][i+1]]
			if pi > pj {
				pi, pj = pj, pi
			}
			pairs = append(pairs, coupling.Pair{
				I: pi, J: pj,
				CTilde: 2 + float64((l+i)%5),
				Dist:   2 + 0.2*float64(i%3),
				Weight: 0.5 + 0.5*float64((i+l)%2),
			})
		}
	}
	cs, err := coupling.NewSet(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g, cs
}

// meshOptions derives a binding-but-feasible option set for the mesh:
// delay held at the uniform-size level, noise and power capped above the
// all-minimum floor, plus per-net bounds on one coupled wire per layer.
func meshOptions(t testing.TB, g *circuit.Graph, cs *coupling.Set, maxIter int) Options {
	t.Helper()
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	ev.SetAllSizes(1)
	ev.Recompute()
	a0 := ev.MaxArrival()
	ev.SetAllSizes(0.1)
	ev.Recompute()
	opt := DefaultOptions(a0, 1.6*ev.NoiseLinear()+cs.ConstantOffset(), 1.5*ev.TotalCap())
	opt.MaxIterations = maxIter
	opt.PerNetNoiseBounds = map[int]float64{}
	for i := 0; i < g.NumNodes(); i++ {
		if g.Comp(i).Kind == circuit.Wire && len(cs.Neighbors(i)) > 0 {
			if len(opt.PerNetNoiseBounds) < 8 {
				opt.PerNetNoiseBounds[i] = 1.4 * (ev.CHat[i]*ev.X[i] + ev.CNbr[i])
			}
		}
	}
	return opt
}

func solveMesh(t testing.TB, g *circuit.Graph, cs *coupling.Set, opt Options, workers int) traced {
	t.Helper()
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = workers
	return runTraced(t, ev, opt)
}

// traced is a Result plus the IterStats its solve delivered to
// OnIteration, so width comparisons cover the whole trajectory, not just
// its end point.
type traced struct {
	*Result
	Trajectory []IterStats
}

// runTraced solves opt on ev with a fresh recording hook.
func runTraced(t testing.TB, ev *rc.Evaluator, opt Options) traced {
	t.Helper()
	var tr traced
	opt.OnIteration = func(p IterProgress) { tr.Trajectory = append(tr.Trajectory, p.IterStats) }
	sol, err := NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	if tr.Result, err = sol.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPoolRunPartition checks the scheduler's contract: every index in
// [lo, hi) is visited exactly once, shard ids are dense, and a closed pool
// degrades to inline execution.
func TestPoolRunPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		p := newPool(workers)
		for _, span := range [][2]int{{0, 1}, {3, 17}, {0, 1000}, {5, 5}} {
			lo, hi := span[0], span[1]
			visited := make([]int32, hi+1)
			var mu sync.Mutex
			maxShard := -1
			shards := p.run(lo, hi, func(shard, slo, shi int) {
				mu.Lock()
				if shard > maxShard {
					maxShard = shard
				}
				mu.Unlock()
				for i := slo; i < shi; i++ {
					visited[i]++ // shards are disjoint: no two touch the same i
				}
			})
			if hi > lo && shards != maxShard+1 {
				t.Errorf("workers=%d [%d,%d): run returned %d shards, saw max id %d", workers, lo, hi, shards, maxShard)
			}
			for i := lo; i < hi; i++ {
				if visited[i] != 1 {
					t.Fatalf("workers=%d [%d,%d): index %d visited %d times", workers, lo, hi, i, visited[i])
				}
			}
		}
		p.close()
		p.close() // idempotent
		if got := p.run(0, 10, func(shard, lo, hi int) {}); got != 1 {
			t.Errorf("closed pool ran %d shards, want 1 (inline)", got)
		}
	}
}

// TestWorkersBitIdentical is the determinism guarantee: the sharded solver
// must reproduce the serial solver's Result bit for bit, for any worker
// count, on a mid-size coupled instance with every constraint class active
// (delay, power, global noise, per-net noise).
func TestWorkersBitIdentical(t *testing.T) {
	g, cs := meshCircuit(t, 12, 10)
	opt := meshOptions(t, g, cs, 60)
	ref := solveMesh(t, g, cs, opt, 1)
	for _, workers := range []int{2, 3, 8} {
		res := solveMesh(t, g, cs, opt, workers)
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("Workers=%d diverged from Workers=1", workers)
			if ref.Iterations != res.Iterations {
				t.Errorf("  iterations %d vs %d", ref.Iterations, res.Iterations)
			}
			if ref.Area != res.Area {
				t.Errorf("  area %.17g vs %.17g", ref.Area, res.Area)
			}
			for i := range ref.X {
				if ref.X[i] != res.X[i] {
					t.Errorf("  first size mismatch at node %d: %.17g vs %.17g", i, ref.X[i], res.X[i])
					break
				}
			}
		}
	}
}

// TestParallelMatchesSerialOnFixtures re-runs the package's existing small
// fixtures under the pool and demands exact Result equality with the
// serial path.
func TestParallelMatchesSerialOnFixtures(t *testing.T) {
	run := func(g *circuit.Graph, cs *coupling.Set, opt Options, workers int) traced {
		opt.Workers = workers
		return runTraced(t, newEval(t, g, cs), opt)
	}

	chainG, _ := chain(t)
	victimG, _, victimCS := coupledVictim(t)
	cases := []struct {
		name string
		g    *circuit.Graph
		cs   *coupling.Set
		opt  Options
	}{
		{"chain-delay", chainG, emptySet(t), DefaultOptions(2.0, 0, 0)},
		{"chain-power", chainG, emptySet(t), DefaultOptions(2.0, 0, 100)},
		{"victim-noise", victimG, victimCS, DefaultOptions(3.0, 20, 0)},
	}
	for _, tc := range cases {
		ref := run(tc.g, tc.cs, tc.opt, 1)
		for _, workers := range []int{4} {
			if res := run(tc.g, tc.cs, tc.opt, workers); !reflect.DeepEqual(ref, res) {
				t.Errorf("%s: Workers=%d diverged from serial (area %.17g vs %.17g, iters %d vs %d)",
					tc.name, workers, ref.Area, res.Area, ref.Iterations, res.Iterations)
			}
		}
	}
}

// TestParallelRaceStress drives every sharded code path hard under the
// race detector (go test -race): a mid-size coupled solve with all
// constraint classes active at high worker counts, solvers running
// concurrently via fanout.Each, and reuse of one solver after Close.
func TestParallelRaceStress(t *testing.T) {
	g, cs := meshCircuit(t, 14, 8)
	opt := meshOptions(t, g, cs, 25)

	res8 := solveMesh(t, g, cs, opt, 8)
	if res8.Iterations == 0 || math.IsNaN(res8.Area) {
		t.Fatalf("stress solve produced no work: %+v", res8)
	}

	errs := make([]error, 6)
	fanout.Each(len(errs), 3, func(i int) {
		ev, err := rc.NewEvaluator(g, cs)
		if err != nil {
			errs[i] = err
			return
		}
		o := opt
		o.Workers = 2 // nested: fan-out × solver parallelism
		o.A0 *= 1 + 0.05*float64(i)
		sol, err := NewSolver(ev, o)
		if err != nil {
			errs[i] = err
			return
		}
		defer sol.Close()
		_, errs[i] = sol.Run()
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent solve %d: %v", i, err)
		}
	}

	// Close mid-life: the solver must degrade to serial, not crash, and
	// keep producing the same numbers.
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	o := opt
	o.Workers = 4
	sol, err := NewSolver(ev, o)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	sol.Close()
	after, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("solver diverged after Close (serial fallback not bit-identical)")
	}
}

package sweep

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden sweep fixture under testdata/")

// goldenArch matches the root golden suite: the snapshot comparison is
// bitwise only on the architecture that generated the fixture (FMA), the
// cross-width comparisons are bitwise everywhere.
const goldenArch = "amd64"

// testInstance wraps a deterministic coupled mesh in a bench.Instance —
// the sweep engine touches only the evaluator, the coupling set, and the
// spec name, so the heavy pipeline fields can stay empty as long as the
// base bounds are passed explicitly. bench.GridInstance is the exact
// construction this test suite's golden fixture was generated from; the
// farm smoke re-materializes the same mesh in worker processes by key.
func testInstance(t testing.TB, width, layers int) (*bench.Instance, bench.Bounds) {
	t.Helper()
	inst, b, err := bench.GridInstance(width, layers, true)
	if err != nil {
		t.Fatal(err)
	}
	return inst, b
}

func testOptions(b bench.Bounds, mutate func(*Options)) Options {
	opt := Options{
		DelayScale:    []float64{1, 1.06, 1.12},
		NoiseScale:    []float64{0.8, 1, 1.3},
		Bounds:        &b,
		MaxIterations: 12,
	}
	if mutate != nil {
		mutate(&opt)
	}
	return opt
}

// stripTiming zeroes the wall-clock fields, the only nondeterministic
// part of a sweep result.
func stripTiming(r *Result) *Result {
	for i := range r.Cells {
		r.Cells[i].SolveSec = 0
	}
	return r
}

// cellResults projects a sweep onto its numerical payload — the per-cell
// solver results and the frontier — dropping the seeding metadata that
// legitimately differs between warm and cold schedules.
func cellResults(r *Result) ([]*core.Result, []int) {
	rs := make([]*core.Result, len(r.Cells))
	for i := range r.Cells {
		rs[i] = r.Cells[i].Result
	}
	return rs, r.Frontier
}

func runSweep(t *testing.T, inst *bench.Instance, opt Options) *Result {
	t.Helper()
	res, err := Run(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runWavefront runs a warm sweep's chained wavefront even where the
// sweep is seed-independent, which RunOn would plan as one independent
// batch: the runner it hands RunOn solves the chained plan of the same
// grid instead of the plan it is given.
func runWavefront(t *testing.T, inst *bench.Instance, opt Options) *Result {
	t.Helper()
	filled := opt
	filled.fill()
	res, err := grid(inst, filled)
	if err != nil {
		t.Fatal(err)
	}
	chained := wavefront(res, inst.Eval.X, filled, false)
	out, err := RunOn(inst, opt, func(_ bench.Plan, s bench.Schedule) ([]*bench.Solved, error) {
		return inst.RunPlan(chained, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepGolden pins the default warm-started sweep of the mesh fixture
// to a committed snapshot, bit for bit, and demands the identical grid at
// every SweepWorkers width — the determinism contract of the wavefront
// schedule (static seeding chains, indexed writes).
func TestSweepGolden(t *testing.T) {
	inst, b := testInstance(t, 12, 10)
	ref := stripTiming(runSweep(t, inst, testOptions(b, nil)))

	path := filepath.Join("testdata", "golden_grid.json")
	if *update {
		data, err := json.MarshalIndent(ref, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sweep -run TestSweepGolden -update` to create)", err)
	}
	want := new(Result)
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH == goldenArch && !reflect.DeepEqual(want, ref) {
		t.Errorf("sweep diverged from golden snapshot %s", path)
	}

	for _, sw := range []int{2, 8} {
		res := stripTiming(runSweep(t, inst, testOptions(b, func(o *Options) { o.SweepWorkers = sw })))
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("SweepWorkers=%d diverged from SweepWorkers=1", sw)
		}
	}
}

// TestSweepWarmColdBitIdentical: with the paper-faithful S1 reset
// (ColdLRS) and dual restarts (PrimalOnly) the OGWS trajectory is
// independent of the seed, so the warm wavefront and the cold flat
// fan-out must produce bit-identical cells — the seeding path can
// rearrange work, never results. This is the rule under which Run plans
// such a warm sweep as a cold one, so the warm side forces the wavefront.
func TestSweepWarmColdBitIdentical(t *testing.T) {
	inst, b := testInstance(t, 12, 10)
	warm := runWavefront(t, inst, testOptions(b, func(o *Options) { o.ColdLRS = true; o.PrimalOnly = true }))
	cold := runSweep(t, inst, testOptions(b, func(o *Options) { o.ColdLRS = true; o.Cold = true }))
	warmR, warmF := cellResults(warm)
	coldR, coldF := cellResults(cold)
	if !reflect.DeepEqual(warmR, coldR) || !reflect.DeepEqual(warmF, coldF) {
		t.Errorf("S1-reset warm sweep diverged from the cold sweep")
	}
	// The seeding metadata must reflect the schedule that ran.
	if c := warm.At(1, 1); c.SeedRow != 1 || c.SeedCol != 0 {
		t.Errorf("warm cell (1,1) seeded from (%d,%d), want (1,0)", c.SeedRow, c.SeedCol)
	}
	if c := cold.At(1, 1); c.SeedRow != -1 || c.SeedCol != -1 {
		t.Errorf("cold cell (1,1) records seed (%d,%d), want (-1,-1)", c.SeedRow, c.SeedCol)
	}
}

// TestSweepWarmDoesLessWork: on the default (LRS-warm) path, seeding each
// cell from its solved neighbour must cost fewer total LRS sweeps than
// solving every cell from the uniform initial sizes — the premise the
// whole engine is built on.
func TestSweepWarmDoesLessWork(t *testing.T) {
	inst, b := testInstance(t, 12, 10)
	warm := runSweep(t, inst, testOptions(b, nil))
	cold := runSweep(t, inst, testOptions(b, func(o *Options) { o.Cold = true }))
	sweeps := func(r *Result) (total int) {
		for i := range r.Cells {
			total += r.Cells[i].Result.LRSSweepsTotal
		}
		return
	}
	ws, cs := sweeps(warm), sweeps(cold)
	if ws >= cs {
		t.Errorf("warm-started sweep used %d LRS sweeps, cold %d — warm starting bought nothing", ws, cs)
	}
}

// TestSweepLeavesInstanceUntouched: every cell solves on a replica; the
// shared instance's evaluator must keep its initial sizes, so one
// instance can back many sweeps.
func TestSweepLeavesInstanceUntouched(t *testing.T) {
	inst, b := testInstance(t, 12, 10)
	before := append([]float64(nil), inst.Eval.X...)
	runSweep(t, inst, testOptions(b, nil))
	if !reflect.DeepEqual(before, inst.Eval.X) {
		t.Error("sweep mutated the shared instance's evaluator sizes")
	}
}

// TestSweepDefaultsToSingleCell: the zero-value options solve exactly the
// base bounds.
func TestSweepDefaultsToSingleCell(t *testing.T) {
	inst, b := testInstance(t, 8, 6)
	res := runSweep(t, inst, Options{Bounds: &b, MaxIterations: 8})
	if res.Rows != 1 || res.Cols != 1 || len(res.Cells) != 1 {
		t.Fatalf("zero-value axes produced a %dx%d grid", res.Rows, res.Cols)
	}
	c := res.At(0, 0)
	if c.Bounds != b {
		t.Errorf("single cell solved bounds %+v, want base %+v", c.Bounds, b)
	}
	if len(res.Frontier) != 1 || res.Frontier[0] != 0 {
		t.Errorf("single-cell frontier = %v", res.Frontier)
	}
}

// TestSweepRejectsBadFactors: zero, negative, NaN, and Inf axis factors
// fail before any solve.
func TestSweepRejectsBadFactors(t *testing.T) {
	inst, b := testInstance(t, 8, 6)
	for _, bad := range [][]float64{{0}, {-1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := Run(inst, testOptions(b, func(o *Options) { o.DelayScale = bad })); err == nil {
			t.Errorf("delay factor %v accepted", bad)
		}
		if _, err := Run(inst, testOptions(b, func(o *Options) { o.NoiseScale = bad })); err == nil {
			t.Errorf("noise factor %v accepted", bad)
		}
	}
}

// TestSweepPropagatesSolverErrors: an infeasible cell bound (below the
// constant coupling offset) must surface from both schedules.
func TestSweepPropagatesSolverErrors(t *testing.T) {
	inst, b := testInstance(t, 8, 6)
	bad := b
	bad.NoiseBound = inst.Coupling.ConstantOffset() * 0.5
	for _, cold := range []bool{false, true} {
		_, err := Run(inst, testOptions(bad, func(o *Options) {
			o.Cold = cold
			o.NoiseScale = []float64{1, 1}
		}))
		if err == nil {
			t.Errorf("cold=%v: infeasible noise bound did not error", cold)
		}
	}
}

// TestFrontierProperty: on random point clouds, no frontier member is
// dominated and every excluded point is dominated by someone.
func TestFrontierProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		cells := make([]Cell, n)
		pts := make([]point, n)
		for i := range cells {
			// Coarse coordinates force ties and duplicates.
			p := point{
				float64(rng.Intn(4)),
				float64(rng.Intn(4)),
				float64(rng.Intn(4)),
			}
			pts[i] = p
			cells[i].Result = &core.Result{DelayPs: p[0], NoiseLinFF: p[1], PowerCapFF: p[2]}
		}
		front := Frontier(cells)
		onFront := make([]bool, n)
		for _, i := range front {
			onFront[i] = true
		}
		for i := 0; i < n; i++ {
			dominated := false
			for j := 0; j < n; j++ {
				if j != i && dominates(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if onFront[i] && dominated {
				t.Fatalf("trial %d: frontier point %d is dominated", trial, i)
			}
			if !onFront[i] && !dominated {
				t.Fatalf("trial %d: undominated point %d excluded from the frontier", trial, i)
			}
		}
	}
}

// TestFrontierSkipsMissingResults: cells without a Result are neither
// frontier members nor dominators.
func TestFrontierSkipsMissingResults(t *testing.T) {
	cells := []Cell{
		{Result: &core.Result{DelayPs: 2, NoiseLinFF: 2, PowerCapFF: 2}},
		{}, // unsolved
		{Result: &core.Result{DelayPs: 1, NoiseLinFF: 1, PowerCapFF: 1}},
	}
	front := Frontier(cells)
	if !reflect.DeepEqual(front, []int{2}) {
		t.Errorf("frontier = %v, want [2]", front)
	}
}

// TestRunSpec exercises the instance-building front door on a real
// Table-1 circuit with a tiny grid.
func TestRunSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, _ := bench.SpecByName("c432")
	res, err := RunSpec(spec, bench.PipelineOptions{}, Options{
		NoiseScale:    []float64{0.9, 1.2},
		MaxIterations: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit != "c432" || len(res.Cells) != 2 {
		t.Fatalf("unexpected sweep shape: %s %d cells", res.Circuit, len(res.Cells))
	}
	for i := range res.Cells {
		if res.Cells[i].Result == nil {
			t.Fatalf("cell %d unsolved", i)
		}
	}
	if len(res.Frontier) == 0 {
		t.Error("empty frontier")
	}
}

// TestSweepOnProgressStreams pins the per-iteration progress hook: every
// cell reports at least one iteration tagged with its own grid position,
// the per-cell iteration counts match the solved results, and — the
// determinism clause — the grid is bit-identical with the hook installed.
func TestSweepOnProgressStreams(t *testing.T) {
	inst, b := testInstance(t, 12, 10)
	ref := stripTiming(runSweep(t, inst, testOptions(b, nil)))

	var mu sync.Mutex
	iters := map[[2]int]int{}
	res := stripTiming(runSweep(t, inst, testOptions(b, func(o *Options) {
		o.OnProgress = func(row, col int, p core.IterProgress) {
			if p.K <= 0 || p.Area <= 0 {
				t.Errorf("cell (%d,%d): bad progress %+v", row, col, p)
			}
			mu.Lock()
			iters[[2]int{row, col}]++
			mu.Unlock()
		}
	})))

	if !reflect.DeepEqual(ref, res) {
		t.Errorf("OnProgress perturbed the solved grid")
	}
	for i := 0; i < res.Rows; i++ {
		for j := 0; j < res.Cols; j++ {
			c := res.At(i, j)
			if got := iters[[2]int{i, j}]; got != c.Result.Iterations {
				t.Errorf("cell (%d,%d): %d progress events for %d iterations",
					i, j, got, c.Result.Iterations)
			}
		}
	}
}

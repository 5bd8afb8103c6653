package core_test

// The engine-vs-full oracle over the golden fixtures and the committed
// full-vs-incremental benchmark. Both build their instances through
// internal/bench, which imports core, so they live in the external test
// package and reach the full-pass reference through the test-only
// Solver.SetHysteresis (export_test.go).

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/rc"
)

// goldenFixture mirrors the repository's golden suite (golden_test.go at
// the module root): build returns a fresh evaluator on every call plus the
// exact options of the run.
type goldenFixture struct {
	name  string
	build func(t *testing.T) (*rc.Evaluator, core.Options)
}

func specInstance(tb testing.TB, spec string, pipe bench.PipelineOptions) *bench.Instance {
	tb.Helper()
	s, ok := bench.SpecByName(spec)
	if !ok {
		tb.Fatalf("unknown spec %s", spec)
	}
	inst, err := bench.BuildInstance(s, pipe)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func instanceFixture(spec string, maxIter int, pipe bench.PipelineOptions) func(t *testing.T) (*rc.Evaluator, core.Options) {
	return func(t *testing.T) (*rc.Evaluator, core.Options) {
		inst := specInstance(t, spec, pipe)
		b := bench.DeriveBounds(inst)
		opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
		opt.MaxIterations = maxIter
		return inst.Eval, opt
	}
}

func c17Fixture(t *testing.T) (*rc.Evaluator, core.Options) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "c17.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nl, err := netlist.Parse("c17", f)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.AssembleNetlist(nl, 17, bench.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := bench.DeriveBounds(inst)
	return inst.Eval, core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
}

// gridFixture is the coupled 12×10 mesh with per-net noise bounds.
func gridFixture(t *testing.T) (*rc.Evaluator, core.Options) {
	g, cs, err := bench.Grid(12, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	probe.SetAllSizes(1)
	probe.Recompute()
	a0 := probe.MaxArrival()
	probe.SetAllSizes(0.1)
	probe.Recompute()
	opt := core.DefaultOptions(a0, 1.6*probe.NoiseLinear()+cs.ConstantOffset(), 1.5*probe.TotalCap())
	opt.MaxIterations = 25
	opt.PerNetNoiseBounds = map[int]float64{}
	for i := 0; i < g.NumNodes() && len(opt.PerNetNoiseBounds) < 6; i++ {
		if g.Comp(i).Kind == circuit.Wire && len(cs.Neighbors(i)) > 0 {
			opt.PerNetNoiseBounds[i] = 1.4 * (probe.CHat[i]*probe.X[i] + probe.CNbr[i])
		}
	}
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	return ev, opt
}

func dampedFixture(build func(*testing.T) (*rc.Evaluator, core.Options), w float64) func(*testing.T) (*rc.Evaluator, core.Options) {
	return func(t *testing.T) (*rc.Evaluator, core.Options) {
		ev, opt := build(t)
		opt.LRSDamping = w
		return ev, opt
	}
}

var goldenFixtures = []goldenFixture{
	{name: "c17", build: c17Fixture},
	{name: "c432", build: instanceFixture("c432", 30, bench.PipelineOptions{})},
	{name: "c880", build: instanceFixture("c880", 20, bench.PipelineOptions{})},
	{name: "c432-global8x", build: instanceFixture("c432", 20, bench.PipelineOptions{WireLengthScale: 8})},
	{name: "grid12x10", build: gridFixture},
	{name: "c432-damp03", build: dampedFixture(instanceFixture("c432", 30, bench.PipelineOptions{}), 0.3)},
	{name: "c880-damp1", build: dampedFixture(instanceFixture("c880", 20, bench.PipelineOptions{}), 1)},
}

// solveFixture solves one fixture at Workers=1, on the full-pass reference
// when full is set and on the solver's own schedule otherwise.
func solveFixture(t *testing.T, fx goldenFixture, full bool) *core.Result {
	t.Helper()
	ev, opt := fx.build(t)
	opt.Workers = 1
	sol, err := core.NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	if full {
		sol.SetHysteresis(0)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenIncrementalMatchesFull re-solves every golden fixture on the
// full-pass reference (K = 0: full loads and upstream passes on every
// sweep, the paper's literal Figure 8) and demands the exact result the
// default dirty-cone/active-set engine produced. Together with the root
// TestGoldenFixtures, whose snapshots the engine is compared against, this
// pins both schedules to one bit pattern.
func TestGoldenIncrementalMatchesFull(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			ref := solveFixture(t, fx, false)
			full := solveFixture(t, fx, true)
			if !reflect.DeepEqual(ref, full) {
				t.Errorf("full-pass solve diverged from the engine: iterations %d vs %d, sweeps %d vs %d, area %.17g vs %.17g, dual %.17g vs %.17g",
					ref.Iterations, full.Iterations, ref.LRSSweepsTotal, full.LRSSweepsTotal,
					ref.Area, full.Area, ref.Dual, full.Dual)
			}
		})
	}
}

// incrementalScenario builds one warm-start solve setup for
// BenchmarkIncrementalSolve: a prebuilt evaluator (primed by a full pass)
// and solver options with binding bounds. Workers is pinned to 1 so the
// numbers isolate evaluation work, not pool scheduling.
type incrementalScenario struct {
	name  string
	build func(b *testing.B) (*rc.Evaluator, core.Options)
}

func incrementalScenarios() []incrementalScenario {
	return []incrementalScenario{
		{name: "c880", build: func(b *testing.B) (*rc.Evaluator, core.Options) {
			inst := specInstance(b, "c880", bench.PipelineOptions{})
			bounds := bench.DeriveBounds(inst)
			opt := core.DefaultOptions(bounds.A0, bounds.NoiseBound, bounds.PowerBound)
			opt.MaxIterations = 200
			opt.WarmStart = true
			opt.Workers = 1
			return inst.Eval, opt
		}},
		{name: "grid32x24", build: func(b *testing.B) (*rc.Evaluator, core.Options) {
			g, cs, err := bench.Grid(32, 24, true)
			if err != nil {
				b.Fatal(err)
			}
			ev, err := rc.NewEvaluator(g, cs)
			if err != nil {
				b.Fatal(err)
			}
			ev.SetAllSizes(1)
			ev.Recompute()
			a0 := ev.MaxArrival()
			ev.SetAllSizes(0.1)
			ev.Recompute()
			noise := 1.25*ev.NoiseLinear() + cs.ConstantOffset()
			power := 1.25 * ev.TotalCap()
			ev.SetAllSizes(1)
			ev.Recompute()
			opt := core.DefaultOptions(a0, noise, power)
			opt.MaxIterations = 120
			opt.WarmStart = true
			opt.Workers = 1
			return ev, opt
		}},
	}
}

// BenchmarkIncrementalSolve times one complete warm-started OGWS solve
// per op on each LRS schedule: "full" pays the whole circuit on every LRS
// sweep (the full-pass reference, K = 0), "incremental" runs the
// dirty-cone/active-set engine with the cutover hysteresis (the solver's
// only schedule), and "incremental-nohyst" disables the hysteresis — the
// PR-3 behaviour, kept so the grid32x24 before/after is one diff in the
// committed trajectory. It is the measurement that keeps the engine and
// the hysteresis. All modes are bit-identical at every step, so ns/op,
// allocs/op, and the evalNodesPerSweep metric compare exactly the same
// trajectory; hystTripsPerSolve records whether the hysteresis fired
// (grid32x24: every solve; c880: never). The incremental cases also
// report workReductionX — full-pass node visits divided by measured
// visits, derivable analytically because all modes execute identical
// sweep counts. A full-mode sweep runs a loads pass (2·(nn−2) bodies,
// plus nn coupling bodies when coupled) and an upstream pass (nn−2); a
// trailing full pass runs the same loads pass and an arrival pass (nn−2):
//
//	fullVisits = (sweeps + trailingFulls)·(3·(nn−2) + coupledNN)
//
// where coupledNN is nn on a coupled circuit and 0 otherwise, and
// trailingFulls = FullRecomputes − DegradedRecomputes − revertedSweeps:
// the deliberate full passes (one per LRS call plus result restores, which
// the full mode pays too) but NOT the sweep-top refreshes that degraded
// past the coneWorthwhile cutover, and NOT the sweeps the hysteresis
// reverted to the full-pass path — both stand in for a sweep's loads pass,
// which `sweeps` already charges once.
func BenchmarkIncrementalSolve(b *testing.B) {
	// The cutover hysteresis K per mode; "incremental" keeps the solver's.
	hysteresis := map[string]int{"full": 0, "incremental-nohyst": -1}
	for _, sc := range incrementalScenarios() {
		for _, mode := range []string{"full", "incremental", "incremental-nohyst"} {
			b.Run(sc.name+"/"+mode, func(b *testing.B) {
				ev, opt := sc.build(b)
				initX := append([]float64(nil), ev.X...)
				sol, err := core.NewSolver(ev, opt)
				if err != nil {
					b.Fatal(err)
				}
				defer sol.Close()
				if k, ok := hysteresis[mode]; ok {
					sol.SetHysteresis(k)
				}
				var last *core.Result
				var reverted int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := ev.SetSizes(initX); err != nil {
						b.Fatal(err)
					}
					ev.Recompute()
					ev.ResetStats()
					rev0 := sol.RevertedSweeps()
					b.StartTimer()
					res, err := sol.Run()
					if err != nil {
						b.Fatal(err)
					}
					last = res
					reverted = sol.RevertedSweeps() - rev0 // last solve only, like the stats
				}
				st := ev.Stats()
				sweeps := st.FullUpstreams + st.IncUpstreams // one upstream pass per sweep
				if sweeps == 0 {
					b.Fatal("no sweeps recorded")
				}
				nn := int64(ev.Graph().NumNodes())
				b.ReportMetric(float64(last.Iterations), "iters")
				b.ReportMetric(float64(st.NodeVisits())/float64(sweeps), "evalNodesPerSweep")
				if mode != "full" {
					passBodies := 3 * (nn - 2)
					if ev.Couplings().Len() > 0 {
						passBodies += nn
					}
					trailingFulls := st.FullRecomputes - st.DegradedRecomputes - reverted
					fullVisits := (sweeps + trailingFulls) * passBodies
					b.ReportMetric(float64(fullVisits)/float64(st.NodeVisits()), "workReductionX")
					b.ReportMetric(float64(sol.HysteresisTrips())/float64(b.N), "hystTripsPerSolve")
				}
			})
		}
	}
}

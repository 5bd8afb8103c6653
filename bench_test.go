package repro

// Benchmark harness regenerating every table and figure of the paper's
// evaluation section (see EXPERIMENTS.md for the paper-vs-measured record):
//
//	BenchmarkTable1/*            — E1: full two-stage solve per circuit
//	BenchmarkFigure10Runtime/*   — E3: wall time per OGWS iteration vs size
//	BenchmarkFigure10Storage/*   — E2: solver memory vs size (metric MB)
//	BenchmarkCouplingApprox      — E4 lives in internal/coupling
//	BenchmarkAblation*           — A1–A3 design-choice ablations
//
// cmd/table1 and cmd/figure10 produce the formatted artifacts; these
// benches measure the same work under testing.B.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/rc"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// table1Circuits is the subset run under `go test -bench`; the full ten
// (including c5315/c6288/c7552) run in cmd/table1. The subset keeps
// `go test -bench=. ./...` under a few minutes while covering a 15×
// size range.
var table1Circuits = []string{"c432", "c880", "c499", "c1355", "c1908", "c2670", "c3540"}

func instanceFor(b *testing.B, name string) *bench.Instance {
	b.Helper()
	spec, ok := bench.SpecByName(name)
	if !ok {
		b.Fatalf("unknown spec %s", name)
	}
	inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkTable1 regenerates Table 1 rows: one op = one full OGWS solve.
// The noise/delay/power/area improvements are attached as metrics.
func BenchmarkTable1(b *testing.B) {
	for _, name := range table1Circuits {
		b.Run(name, func(b *testing.B) {
			spec, _ := bench.SpecByName(name)
			var last *bench.Table1Row
			for i := 0; i < b.N; i++ {
				row, err := bench.RunRow(spec, bench.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(float64(last.Iterations), "iters")
			b.ReportMetric(100*(last.InitNoisePF-last.FinNoisePF)/last.InitNoisePF, "noiseImpr%")
			b.ReportMetric(100*(last.InitAreaUM2-last.FinAreaUM2)/last.InitAreaUM2, "areaImpr%")
			b.ReportMetric(100*(last.InitPowerMW-last.FinPowerMW)/last.InitPowerMW, "powerImpr%")
		})
	}
}

// BenchmarkFigure10Runtime measures the cost of one OGWS iteration (LRS +
// multiplier update + projection) per circuit — the y-axis of Figure 10(b).
func BenchmarkFigure10Runtime(b *testing.B) {
	for _, name := range table1Circuits {
		b.Run(name, func(b *testing.B) {
			inst := instanceFor(b, name)
			bounds := bench.DeriveBounds(inst)
			opt := core.DefaultOptions(bounds.A0, bounds.NoiseBound, bounds.PowerBound)
			opt.MaxIterations = 1 // one op = one outer iteration
			sol, err := core.NewSolver(inst.Eval, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sol.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(inst.Spec.Components()), "components")
		})
	}
}

// BenchmarkFigure10Storage reports the analytic solver memory per circuit —
// the y-axis of Figure 10(a) — as the MB metric.
func BenchmarkFigure10Storage(b *testing.B) {
	for _, name := range table1Circuits {
		b.Run(name, func(b *testing.B) {
			spec, _ := bench.SpecByName(name)
			var mem float64
			for i := 0; i < b.N; i++ {
				row, err := bench.RunRow(spec, bench.RunOptions{MaxIterations: 2})
				if err != nil {
					b.Fatal(err)
				}
				mem = row.MemMB
			}
			b.ReportMetric(mem, "MB")
			b.ReportMetric(float64(spec.Components()), "components")
		})
	}
}

// BenchmarkLRS measures one greedy subproblem solve (Figure 8) — the inner
// kernel whose linearity in circuit size underlies Figure 10(b).
func BenchmarkLRS(b *testing.B) {
	for _, name := range []string{"c432", "c1355", "c3540"} {
		b.Run(name, func(b *testing.B) {
			inst := instanceFor(b, name)
			bounds := bench.DeriveBounds(inst)
			opt := core.DefaultOptions(bounds.A0, bounds.NoiseBound, bounds.PowerBound)
			sol, err := core.NewSolver(inst.Eval, opt)
			if err != nil {
				b.Fatal(err)
			}
			// Run once to set up multipliers, then time LRS alone.
			opt2 := opt
			opt2.MaxIterations = 1
			if _, err := sol.Run(); err != nil {
				_ = opt2
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol.LRS()
			}
		})
	}
}

// BenchmarkAblationNoiseConstraint (A1) compares the full noise-constrained
// solve against the delay/power-only LR sizing of the prior work the paper
// extends (γ = 0): the metric is the final noise in fF.
func BenchmarkAblationNoiseConstraint(b *testing.B) {
	for _, mode := range []string{"with-noise", "without-noise"} {
		b.Run(mode, func(b *testing.B) {
			spec, _ := bench.SpecByName("c432")
			var noise float64
			for i := 0; i < b.N; i++ {
				inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				bounds := bench.DeriveBounds(inst)
				if mode == "without-noise" {
					bounds.NoiseBound = 0 // disables γ, CCW'98 baseline
				}
				row, err := bench.RunInstance(inst, bench.RunOptions{Bounds: &bounds})
				if err != nil {
					b.Fatal(err)
				}
				noise = row.FinNoisePF * 1000
			}
			b.ReportMetric(noise, "finNoiseFF")
		})
	}
}

// BenchmarkAblationOrdering (A2) measures stage 1's contribution: the total
// SS objective (effective loading) for WOSS vs identity vs random track
// assignment.
func BenchmarkAblationOrdering(b *testing.B) {
	for _, mode := range []struct {
		name string
		ord  bench.Ordering
	}{{"woss", bench.OrderWOSS}, {"identity", bench.OrderIdentity}, {"random", bench.OrderRandom}} {
		b.Run(mode.name, func(b *testing.B) {
			spec, _ := bench.SpecByName("c880")
			var cost float64
			for i := 0; i < b.N; i++ {
				inst, err := bench.BuildInstance(spec, bench.PipelineOptions{Ordering: mode.ord})
				if err != nil {
					b.Fatal(err)
				}
				cost = inst.OrderingCost
			}
			b.ReportMetric(cost, "ssCost")
		})
	}
}

// BenchmarkAblationPosynomialOrder (A3) sweeps the truncation order k of
// the coupling model: the metric is the worst-case Theorem-1 error ratio at
// x̄ = 0.25 (paper: 6.3%, 1.6%, 0.4%, 0.1% for k = 2..5).
func BenchmarkAblationPosynomialOrder(b *testing.B) {
	p := coupling.Pair{I: 0, J: 1, CTilde: 10, Dist: 2, Weight: 1}
	for k := 2; k <= 5; k++ {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += p.Approx(0.5, 0.5, k)
			}
			_ = sum
			b.ReportMetric(100*coupling.ErrorRatio(0.25, k), "errRatio%")
		})
	}
}

// BenchmarkAblationWarmStart compares a solve that starts at the lower
// bounds (Figure 8, S1, applied once per Run) against one that starts
// from the instance's initial design, each on a fresh replica of one c432
// instance.
func BenchmarkAblationWarmStart(b *testing.B) {
	inst := instanceFor(b, "c432")
	bounds := bench.DeriveBounds(inst)
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			opt := core.DefaultOptions(bounds.A0, bounds.NoiseBound, bounds.PowerBound)
			opt.WarmStart = mode == "warm"
			var iters int
			for i := 0; i < b.N; i++ {
				ev, err := inst.Replica()
				if err != nil {
					b.Fatal(err)
				}
				sol, err := core.NewSolver(ev, opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sol.Run()
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkRCRecompute measures the linear-time evaluation pass that every
// LRS sweep performs.
func BenchmarkRCRecompute(b *testing.B) {
	inst := instanceFor(b, "c1355")
	ev := inst.Eval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Recompute()
	}
}

// parallelWidths are the batch widths BenchmarkTable1Parallel compares:
// one circuit at a time against one per core. Rows are bit-identical
// across the settings by construction.
func parallelWidths() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkTable1Parallel times a whole Table-1-style sweep through the
// batch driver: one op = building and solving every subset circuit, either
// one after another (workers1) or spread across the machine with one
// serial solver per circuit.
func BenchmarkTable1Parallel(b *testing.B) {
	specs := make([]bench.Spec, 0, len(table1Circuits))
	for _, name := range table1Circuits {
		spec, ok := bench.SpecByName(name)
		if !ok {
			b.Fatalf("unknown spec %s", name)
		}
		specs = append(specs, spec)
	}
	opt := bench.RunOptions{MaxIterations: 60}
	for _, w := range parallelWidths() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.RunTable1Parallel(specs, opt, w)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(specs) {
					b.Fatalf("got %d rows, want %d", len(rows), len(specs))
				}
			}
		})
	}
}

// BenchmarkSweepGrid measures the bounds-grid sweep engine end to end on
// a prebuilt c432 instance: one op = solving the full 2×4 grid. The
// "warm" case is the engine's default — each cell seeded from its solved
// wavefront neighbour through core.Solver.RunFromDual, sizes AND dual
// state (the multipliers are where the iteration-count savings come
// from) — and "cold" solves every cell independently from the initial
// sizes and the A1 multiplier seed. Both run one row at a
// time on one core (SweepWorkers=1), so cellsPerSec isolates the
// warm-start win rather than scheduling; lrsSweeps counts the total inner
// sweeps the grid cost. The warm and cold grids are separately pinned to
// their full-pass oracles by the sweep test suite.
func BenchmarkSweepGrid(b *testing.B) {
	inst := instanceFor(b, "c432")
	for _, mode := range []string{"warm", "cold"} {
		b.Run("c432/"+mode, func(b *testing.B) {
			opt := sweep.Options{
				DelayScale:    []float64{1, 1.05},
				NoiseScale:    []float64{0.7, 0.85, 1, 1.2},
				MaxIterations: 40,
				SweepWorkers:  1,
				Cold:          mode == "cold",
			}
			var last *sweep.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(inst, opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			cells := float64(len(last.Cells))
			b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			total := 0
			for i := range last.Cells {
				total += last.Cells[i].Result.LRSSweepsTotal
			}
			b.ReportMetric(float64(total), "lrsSweeps")
			b.ReportMetric(float64(len(last.Frontier)), "frontierCells")
		})
	}
}

// BenchmarkIncrementalEval isolates the raw dirty-cone win in an
// ECO-style query: perturb k sizes on the ≥10k-node deep mesh, then bring
// the loads and the weighted upstream resistances back up to date —
// incrementally versus with the full reference passes. This is the
// per-sweep kernel of every late-convergence LRS iteration; a sweep never
// refreshes the arrivals.
func BenchmarkIncrementalEval(b *testing.B) {
	g, cs, err := bench.Grid(64, 78, true)
	if err != nil {
		b.Fatal(err)
	}
	var sizable []int
	for i := 0; i < g.NumNodes(); i++ {
		if g.Comp(i).Kind.Sizable() {
			sizable = append(sizable, i)
		}
	}
	lambda := make([]float64, g.NumNodes())
	for i := range lambda {
		lambda[i] = 0.3 + float64(i%7)*0.2
	}
	for _, k := range []int{1, 16, 256} {
		for _, mode := range []string{"full", "incremental"} {
			b.Run(fmt.Sprintf("deep64x78/dirty%d/%s", k, mode), func(b *testing.B) {
				ev, err := rc.NewEvaluator(g, cs)
				if err != nil {
					b.Fatal(err)
				}
				ev.SetAllSizes(1)
				ev.Recompute()
				rup := make([]float64, g.NumNodes())
				ev.UpstreamResistance(lambda, rup)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < k; j++ {
						node := sizable[(i*8191+j*193)%len(sizable)]
						v := 0.8 + 0.5*float64((i+j)%2)
						if _, err := ev.SetSize(node, v); err != nil {
							b.Fatal(err)
						}
					}
					if mode == "incremental" {
						ev.RecomputeLoadsIncremental()
						ev.UpstreamResistanceIncremental(lambda, rup)
					} else {
						ev.RecomputeLoads()
						ev.UpstreamResistance(lambda, rup)
					}
				}
			})
		}
	}
}

// BenchmarkMonteCarloSamples times a K=6 seeded Monte-Carlo yield run on
// the synthetic c432, the sample fan-out (serial solves, GOMAXPROCS at a
// time) versus the solo path (the same solves one at a time). The two
// modes produce bit-identical sample sets (the variation oracle pins
// it), so this is pure scheduling attribution; the samples/s metric is
// what the BENCH_PR*.json snapshots track.
func BenchmarkMonteCarloSamples(b *testing.B) {
	inst := instanceFor(b, "c432")
	const k = 6
	for _, mode := range []string{"solo", "fanout"} {
		b.Run("c432/"+mode, func(b *testing.B) {
			opt := variation.MCOptions{
				Samples:       k,
				Seed:          7,
				Sigmas:        variation.Sigmas{R: 0.05, C: 0.05, Threshold: 0.08},
				MaxIterations: 12,
				Solo:          mode == "solo",
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := variation.MonteCarlo(inst, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkCornerSweep times the standard five-corner enumeration on the
// synthetic c432, warm-started from the nominal solve versus cold — the
// corner analogue of the sweep engine's warm-start advantage. One op =
// nominal + 5 corners; the corners/s metric divides the corners out.
func BenchmarkCornerSweep(b *testing.B) {
	inst := instanceFor(b, "c432")
	for _, mode := range []string{"cold", "warm"} {
		b.Run("c432/"+mode, func(b *testing.B) {
			opt := variation.CornerOptions{
				MaxIterations: 12,
				Cold:          mode == "cold",
			}
			var corners float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := variation.CornerSweep(inst, opt)
				if err != nil {
					b.Fatal(err)
				}
				corners = float64(len(rep.Cells))
			}
			b.ReportMetric(corners*float64(b.N)/b.Elapsed().Seconds(), "corners/s")
		})
	}
}

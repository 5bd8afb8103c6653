// Package repro is a Go reproduction of "Noise-Constrained Performance
// Optimization by Simultaneous Gate and Wire Sizing Based on Lagrangian
// Relaxation" (Jiang, Jou, Chang — DAC 1999).
//
// The library implements the paper's full two-stage flow:
//
//  1. Wire ordering for switching similarity (WOSS): logic-simulate the
//     netlist, measure pairwise switching similarity, and assign wires with
//     similar behaviour to adjacent routing tracks so their effective
//     (Miller-weighted) coupling is small.
//  2. Simultaneous gate and wire sizing by Lagrangian relaxation (OGWS):
//     minimize total area subject to arrival-time, total-crosstalk, and
//     total-power constraints, with the greedy closed-form LRS subproblem
//     solver of the paper's Theorem 5.
//
// The top-level API wraps the internal packages for the common paths —
// synthetic ISCAS85-class benchmarks and parsed .bench netlists; power
// users can reach the internals (circuit graphs, RC evaluation, multiplier
// state) under internal/ when vendoring the module.
//
// # Execution
//
// One solve is one serial pass per iteration, linear in the circuit size,
// as the paper's Figure 10(b) reports it:
//
//   - Within one solve the evaluator is incremental: late LRS sweeps
//     change only a shrinking fringe of sizes, so the engine re-evaluates
//     just the stage-local load and upstream cones of the nodes that moved
//     (a sweep never reads arrivals; each LRS call times them once, in its
//     final full pass) and skips resize updates for components at a
//     bitwise fixed point until a neighbour's change reactivates them.
//     Skipping happens only where recomputation could not change a
//     single bit, so results remain bit-identical to the full passes, and
//     the solver picks this schedule itself: on densely coupled circuits a
//     cutover hysteresis moves the rest of a solve back onto the full
//     passes.
//   - Across solves, OptimizeBatch (and the internal
//     bench.RunTable1Parallel driver) run many circuits or specs side by
//     side, one solver per core, for Table-1-style sweeps. That is where
//     the cores go: independent solves scale, while sharding one solve's
//     per-node loops lost to the serial pass on every measured circuit.
package repro

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/fanout"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Metrics reports the four quality measures of Table 1 plus the exact
// (untruncated) coupling.
type Metrics struct {
	AreaUM2    float64 // Σαᵢxᵢ
	DelayPs    float64 // critical-path arrival time
	PowerMW    float64 // V²f·Σcᵢ
	NoisePF    float64 // Σwᵢⱼĉᵢⱼ(xᵢ+xⱼ), the paper's noise measure
	NoiseExact float64 // Σwᵢⱼc̃ᵢⱼ(1−x̄)⁻¹ in fF
}

// Bounds are the optimization constraints (see bench.DeriveBounds for the
// self-calibrated defaults used in the experiments).
type Bounds = bench.Bounds

// Report is the outcome of Optimize.
type Report struct {
	Initial    Metrics
	Final      Metrics
	Iterations int
	Converged  bool
	Gap        float64
	MemoryKB   float64
	// X is the final size vector indexed by internal circuit node.
	X []float64
}

// Instance is a circuit prepared for the two-stage flow.
type Instance struct {
	inner *bench.Instance
}

// Synthetic builds one of the ISCAS85-class benchmark instances by name
// (c432, c499, c880, c1355, c1908, c2670, c3540, c5315, c6288, c7552).
func Synthetic(name string) (*Instance, error) {
	spec, ok := bench.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown benchmark %q", name)
	}
	inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	return &Instance{inst}, nil
}

// FromBench parses an ISCAS85 .bench netlist and assembles it with the
// calibrated default geometry (see bench.CalibratedTech).
func FromBench(name string, r io.Reader, seed int64) (*Instance, error) {
	nl, err := netlist.Parse(name, r)
	if err != nil {
		return nil, err
	}
	inst, err := bench.AssembleNetlist(nl, seed, bench.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	return &Instance{inst}, nil
}

// Tech returns the technology parameters of the instance.
func (in *Instance) Tech() tech.Params { return in.inner.Tech }

// Name returns the circuit name.
func (in *Instance) Name() string { return in.inner.Spec.Name }

// Gates and Wires report the component counts (the paper's #G and #W).
func (in *Instance) Gates() int { return in.inner.Spec.Gates }

// Wires reports the wire count.
func (in *Instance) Wires() int { return in.inner.Spec.Wires }

func (in *Instance) metrics(m baseline.Metrics) Metrics {
	return Metrics{
		AreaUM2:    m.Area,
		DelayPs:    m.DelayPs,
		PowerMW:    in.inner.Tech.Power(m.PowerCapFF),
		NoisePF:    m.NoiseLinFF / 1000,
		NoiseExact: m.NoiseExact,
	}
}

// Initial returns the metrics of the unoptimized (uniform 1 µm) circuit —
// the Table-1 "Init" columns.
func (in *Instance) Initial() Metrics { return in.metrics(in.inner.Init) }

// DefaultBounds returns the self-calibrated experiment bounds: delay held
// at the initial value, noise and power bounded 25% above their all-minimum
// floors.
func (in *Instance) DefaultBounds() Bounds { return bench.DeriveBounds(in.inner) }

// Optimize runs Algorithm OGWS under the given bounds and returns the
// report. The instance's sizes hold the solution afterwards. The solve
// runs serially; OptimizeBatch runs many at once.
func (in *Instance) Optimize(b Bounds) (*Report, error) {
	row, err := bench.RunInstance(in.inner, bench.RunOptions{Bounds: &b})
	if err != nil {
		return nil, err
	}
	final := baseline.Measure(in.inner.Eval)
	return &Report{
		Initial:    in.Initial(),
		Final:      in.metrics(final),
		Iterations: row.Iterations,
		Converged:  row.Converged,
		Gap:        row.Gap,
		MemoryKB:   row.MemKB,
		X:          append([]float64(nil), in.inner.Eval.X...),
	}, nil
}

// OptimizeBatch optimizes every instance concurrently on at most workers
// goroutines (0 = all cores) and returns the reports in instance order;
// if any solves fail, the lowest-index error is returned. bounds may be
// nil (each instance uses its DefaultBounds) or must have one entry per
// instance. Instances must be distinct: each solve mutates its instance's
// sizes. Every solver runs serially, so the cores stay on distinct
// circuits; each report is bit-identical to a standalone Optimize(b) on
// the same instance.
func OptimizeBatch(insts []*Instance, bounds []Bounds, workers int) ([]*Report, error) {
	if bounds != nil && len(bounds) != len(insts) {
		return nil, fmt.Errorf("repro: OptimizeBatch got %d bounds for %d instances", len(bounds), len(insts))
	}
	reports := make([]*Report, len(insts))
	errs := make([]error, len(insts))
	fanout.Each(len(insts), workers, func(i int) {
		b := Bounds{}
		if bounds != nil {
			b = bounds[i]
		} else {
			b = insts[i].DefaultBounds()
		}
		reports[i], errs[i] = insts[i].Optimize(b)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// Package baseline provides the comparison points for the paper's
// experiments:
//
//   - Uniform sizing — every component at one size. The paper's "Init"
//     columns in Table 1 are the circuit before optimization.
//   - Delay-only Lagrangian sizing — the prior work the paper extends
//     (Chen, Chu, Wong, ICCAD'98): OGWS with the noise and power
//     constraints disabled.
//   - TILOS-style greedy sensitivity sizing — the classic iterative
//     upsizing heuristic: repeatedly bump the critical-path component with
//     the best delay-reduction-per-area ratio until the delay bound holds.
package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rc"
)

// Metrics captures the four Table-1 quantities for one sizing solution
// (power as switched capacitance; use tech.Params.Power to convert to mW).
type Metrics struct {
	Area       float64 // µm²
	DelayPs    float64
	PowerCapFF float64
	NoiseLinFF float64
	NoiseExact float64
}

// Measure evaluates the current sizes of the evaluator.
func Measure(ev *rc.Evaluator) Metrics {
	ev.Recompute()
	return Metrics{
		Area:       ev.Area(),
		DelayPs:    ev.MaxArrival(),
		PowerCapFF: ev.TotalCap(),
		NoiseLinFF: ev.NoiseLinear(),
		NoiseExact: ev.NoiseExact(),
	}
}

// Uniform sets every component to the given size (clamped to its bounds)
// and measures — the paper's initial, unoptimized circuit.
func Uniform(ev *rc.Evaluator, size float64) Metrics {
	ev.SetAllSizes(size)
	return Measure(ev)
}

// DelayOnlyLR runs the paper's OGWS algorithm with the noise and power
// constraints disabled, reproducing plain LR delay-constrained area
// minimization (the ICCAD'98 baseline).
func DelayOnlyLR(ev *rc.Evaluator, a0 float64) (*core.Result, error) {
	sol, err := core.NewSolver(ev, core.DefaultOptions(a0, 0, 0))
	if err != nil {
		return nil, err
	}
	return sol.Run()
}

// TILOSOptions configures the greedy sizer.
type TILOSOptions struct {
	// A0 is the delay target in ps.
	A0 float64
}

// tilosStep is the multiplicative size bump of one greedy move, and
// tilosMaxMoves bounds the number of moves.
const (
	tilosStep     = 1.15
	tilosMaxMoves = 100000
)

// TILOSResult reports the greedy sizing outcome.
type TILOSResult struct {
	Metrics
	Moves int
	// Met reports whether the delay target was reached.
	Met bool
	// X is the final size vector.
	X []float64
}

// TILOS greedily upsizes critical-path components, starting from minimum
// sizes, choosing at each move the component with the largest delay
// reduction per unit area increase. It stops when the target is met, no
// move helps, or tilosMaxMoves is exhausted.
func TILOS(ev *rc.Evaluator, opt TILOSOptions) (*TILOSResult, error) {
	if opt.A0 <= 0 {
		return nil, fmt.Errorf("baseline: TILOS needs a positive delay target, got %g", opt.A0)
	}
	g := ev.Graph()
	// Start from minimum sizes.
	for i := 1; i < g.NumNodes()-1; i++ {
		if c := g.Comp(i); c.Kind.Sizable() {
			ev.X[i] = c.Lo
		}
	}
	ev.Recompute()

	res := &TILOSResult{}
	var path []int // reused across moves; AppendCriticalPath allocates only growth
	for res.Moves < tilosMaxMoves && ev.MaxArrival() > opt.A0 {
		delay := ev.MaxArrival()
		area := ev.Area()
		best, bestScore := -1, 0.0
		var bestSize float64
		path = ev.AppendCriticalPath(path[:0])
		for _, i := range path {
			c := g.Comp(i)
			if !c.Kind.Sizable() || ev.X[i] >= c.Hi {
				continue
			}
			old := ev.X[i]
			trial := old * tilosStep
			if trial > c.Hi {
				trial = c.Hi
			}
			ev.X[i] = trial
			ev.Recompute()
			dGain := delay - ev.MaxArrival()
			aCost := ev.Area() - area
			ev.X[i] = old
			if dGain <= 0 {
				continue
			}
			score := dGain / (aCost + 1e-12)
			if score > bestScore {
				best, bestScore, bestSize = i, score, trial
			}
		}
		if best < 0 {
			break // no upsizing move reduces the critical delay
		}
		ev.X[best] = bestSize
		ev.Recompute()
		res.Moves++
	}
	ev.Recompute()
	res.Metrics = Measure(ev)
	res.Met = ev.MaxArrival() <= opt.A0
	res.X = append([]float64(nil), ev.X...)
	return res, nil
}

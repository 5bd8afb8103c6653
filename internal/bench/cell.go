package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/rc"
)

// CellOptions are the settings of one cell solve besides its bounds and
// its start: the solve budget, where the solve starts, whether to keep its
// dual, and the two core.Options hooks.
type CellOptions struct {
	// MaxIterations and Epsilon are the solve budget (core.Budget
	// normalizes zero values to the defaults).
	MaxIterations int
	Epsilon       float64
	// S1 starts the solve at the lower bounds, the paper's S1
	// (core.Options.WarmStart false), instead of at the seed sizes.
	S1 bool
	// ReturnDual keeps the solve's final dual state in Solved.Dual, for a
	// cell that seeds another or a result saved for later warm starts.
	ReturnDual bool
	// OnIteration and Cancel are the core.Options hooks; either may be nil.
	OnIteration func(core.IterProgress)
	Cancel      func() bool
}

// Solved is one cell's outcome: the solver result, the final dual (only
// when CellOptions.ReturnDual asked for it), the solve's wall time and
// the solve's work counters. It is also the payload of a farm result line,
// so every field round-trips through encoding/json.
type Solved struct {
	Result          *core.Result    `json:"result"`
	Dual            *core.DualState `json:"dual,omitempty"`
	SolveSec        float64         `json:"solve_sec"`
	Eval            rc.EvalStats    `json:"eval"`
	HysteresisTrips int64           `json:"hysteresis_trips"`
	RevertedSweeps  int64           `json:"reverted_sweeps"`
}

// SolveCell is the one cell kernel: Algorithm OGWS on ev at bounds b,
// started from the seed sizes and, when dual is non-nil, from that dual
// state (core.Solver.RunFromDual). Every path that solves a cell — a
// /solve request, a sweep cell, a process corner, a Monte-Carlo sample,
// a farm worker's batch — runs through it, so equal inputs give equal
// bits wherever they run. ev is the caller's: a fresh Replica or
// PerturbedReplica, or the evaluator a chain of cells shares. Eval counts
// only this solve's work, even on a shared evaluator.
func SolveCell(ev *rc.Evaluator, b Bounds, seed []float64, dual *core.DualState, opt CellOptions) (*Solved, error) {
	sopt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	sopt.MaxIterations, sopt.Epsilon = opt.MaxIterations, opt.Epsilon
	sopt.WarmStart = !opt.S1
	sopt.OnIteration, sopt.Cancel = opt.OnIteration, opt.Cancel
	sol, err := core.NewSolver(ev, sopt)
	if err != nil {
		return nil, err
	}
	before := ev.Stats()
	start := time.Now()
	res, err := sol.RunFromDual(seed, dual)
	if err != nil {
		return nil, err
	}
	out := &Solved{
		Result:          res,
		SolveSec:        time.Since(start).Seconds(),
		Eval:            ev.Stats().Sub(before),
		HysteresisTrips: sol.HysteresisTrips(),
		RevertedSweeps:  sol.RevertedSweeps(),
	}
	if opt.ReturnDual {
		out.Dual = sol.DualState()
	}
	return out, nil
}

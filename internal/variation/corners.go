// Corner-enumeration sizing: one nominal solve plus one solve per
// process corner, each corner a constant-scaled variant of the same
// instance (rc.Perturb through the topo-scaling hook, so corners share
// the coupling CSR and level buckets and re-derive only per-node
// constants). Corners warm-start from the nominal solve exactly as sweep
// cells warm-start from their solved neighbour: the nominal sizes seed
// the primal half and the nominal DualState the dual half. Under
// ColdLRS+PrimalOnly a warm start carries no information the solver can
// use (S1 resets the sizes once at the top of the solve, the dual is
// withheld), so warm and cold corner enumerations are bit-identical
// there — the corner analogue of the sweep engine's independence
// predicate, pinned by TestCornerWarmMatchesCold.
package variation

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/rc"
)

// Corner is one named process corner: R/C/threshold scalars on the
// nominal technology.
type Corner struct {
	Name      string  `json:"name"`
	R         float64 `json:"r"`
	C         float64 `json:"c"`
	Threshold float64 `json:"threshold"`
}

// Perturb returns the corner's technology perturbation.
func (c Corner) Perturb() rc.Perturb {
	return rc.Perturb{R: c.R, C: c.C, Threshold: c.Threshold}
}

// StandardCorners returns the usual five-corner enumeration: typical,
// fast, slow, and the two skewed corners (fast gates with slow
// interconnect and the reverse).
func StandardCorners() []Corner {
	return []Corner{
		{Name: "tt", R: 1, C: 1, Threshold: 1},
		{Name: "ff", R: 0.9, C: 0.9, Threshold: 0.85},
		{Name: "ss", R: 1.1, C: 1.1, Threshold: 1.15},
		{Name: "fs", R: 1.1, C: 1.05, Threshold: 0.9},
		{Name: "sf", R: 0.9, C: 0.95, Threshold: 1.1},
	}
}

// CornerOptions configures an enumeration of StandardCorners. The zero
// value solves them with derived bounds and solver defaults.
type CornerOptions struct {
	// Bounds are the nominal base bounds; nil derives them from the
	// instance (bench.DeriveBounds). Every corner is solved against the
	// same targets — the corner moves the technology, not the spec — save
	// the constant-coupling-offset carry in the noise bound (see
	// perturbedBounds).
	Bounds *bench.Bounds
	// Solver knobs, normalized like core.Options.validate (zero keeps the
	// defaults).
	MaxIterations int
	Epsilon       float64
	// Workers is each solve's parallel width, the nominal's included; a
	// value <= 0 means width 1, and the fan-out runs GOMAXPROCS ÷ width
	// corners at once, so it owns the cores (see schedule). Results are
	// bit-identical at every width.
	Workers int
	// Cold skips warm-starting corners from the nominal solve.
	Cold bool
	// PrimalOnly withholds the dual half of the warm start; ColdLRS
	// starts each solve at the lower bounds (the paper's S1, once per
	// solve) instead of the nominal sizes. Under both, warm ≡ cold
	// bitwise.
	PrimalOnly bool
	ColdLRS    bool
	// Cancel is polled at solver iteration boundaries (core.Options.Cancel).
	Cancel func() bool
	// OnCorner, when non-nil, observes each corner cell in corner order,
	// one call at a time, as soon as that corner and every lower one are
	// solved; it never sees a corner past a failed one. Purely
	// observational: results are bit-identical with or without the hook.
	OnCorner func(*CornerCell)
}

// CornerCell is one solved corner.
type CornerCell struct {
	Corner Corner       `json:"corner"`
	Result *core.Result `json:"result"`
}

// CornerReport is the corner-enumeration outcome: the nominal solve, one
// cell per corner (in StandardCorners order), and the cross-corner delay
// distribution of the solved designs.
type CornerReport struct {
	Nominal *core.Result `json:"nominal"`
	Cells   []CornerCell `json:"corners"`
	// Delay summarizes the per-corner achieved delays (DelayPs), nominal
	// excluded — the corner spread Table-1-style reporting quotes.
	Delay Dist `json:"delay"`
}

// solverOptions builds a solve's core options from the shared knobs
// exactly as sweep.Options does, so a corner cell and a sweep cell with
// the same knobs run the same core configuration (core.Options.validate
// applies the budget defaults to both).
func solverOptions(b bench.Bounds, maxIter int, epsilon float64, workers int, coldLRS bool) core.Options {
	sopt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	sopt.MaxIterations, sopt.Epsilon = maxIter, epsilon
	sopt.WarmStart = !coldLRS
	sopt.Workers = workers
	return sopt
}

// resolveBounds returns the explicit bounds or derives them.
func resolveBounds(inst *bench.Instance, b *bench.Bounds) bench.Bounds {
	if b != nil {
		return *b
	}
	return bench.DeriveBounds(inst)
}

// perturbedBounds carries the base bounds to a perturbed technology. The
// targets themselves do not move — a corner shifts the silicon, not the
// spec — with one necessary exception: the noise bound contains the
// constant coupling offset, the crosstalk floor no sizing can remove,
// and that floor scales with the capacitance perturbation. Keeping the
// raw bound fixed would make every slow-C variant infeasible by
// construction, so the bound carries the offset's delta and holds the
// removable noise budget (bound − offset) constant instead. Pure
// arithmetic in (bounds, offset, perturb): a solve computes the same
// bound whatever its width or schedule, preserving bit-identity.
func perturbedBounds(b bench.Bounds, offset float64, p rc.Perturb) bench.Bounds {
	b.NoiseBound += (p.C - 1) * offset
	return b
}

// constantOffset is the instance's unavoidable crosstalk floor.
func constantOffset(inst *bench.Instance) float64 {
	if cs := inst.Eval.Couplings(); cs != nil {
		return cs.ConstantOffset()
	}
	return 0
}

// CornerSweep solves the instance at the nominal technology and then at
// every one of StandardCorners. With warm starts (the default) each
// corner begins at the nominal sizes and multipliers; Cold solves every
// corner from scratch. The nominal solve runs first, because every warm
// corner starts from it; the corners then fan out as independent solves
// (see schedule and solveEach). Each corner is a pure function of its index, so the report
// is deterministic in (instance, options) regardless of hooks, width, or
// timing.
func CornerSweep(inst *bench.Instance, opt CornerOptions) (*CornerReport, error) {
	corners := StandardCorners()
	bounds := resolveBounds(inst, opt.Bounds)
	offset := constantOffset(inst)
	perSolve, width := schedule(opt.Workers, false)
	sopt := solverOptions(bounds, opt.MaxIterations, opt.Epsilon, perSolve, opt.ColdLRS)
	sopt.Cancel = opt.Cancel

	// Nominal solve: the warm-start anchor and the report's reference row.
	nomEv, err := inst.Replica()
	if err != nil {
		return nil, err
	}
	nomSolver, err := core.NewSolver(nomEv, sopt)
	if err != nil {
		return nil, err
	}
	nominal, err := nomSolver.Run()
	if err != nil {
		nomSolver.Close()
		return nil, err
	}
	seed, dual := inst.Eval.X, (*core.DualState)(nil)
	if !opt.Cold {
		seed = nominal.X
		if !opt.PrimalOnly {
			dual = nomSolver.DualState()
		}
	}
	nomSolver.Close()

	cells := make([]CornerCell, len(corners))
	solve := func(i int) error {
		c := corners[i]
		ev, err := inst.PerturbedReplica(c.Perturb())
		if err != nil {
			return fmt.Errorf("variation: corner %q: %w", c.Name, err)
		}
		copt := solverOptions(perturbedBounds(bounds, offset, c.Perturb()),
			opt.MaxIterations, opt.Epsilon, perSolve, opt.ColdLRS)
		copt.Cancel = opt.Cancel
		solver, err := core.NewSolver(ev, copt)
		if err != nil {
			return fmt.Errorf("variation: corner %q: %w", c.Name, err)
		}
		defer solver.Close()
		res, err := solver.RunFromDual(seed, dual)
		if err != nil {
			return fmt.Errorf("variation: corner %q: %w", c.Name, err)
		}
		cells[i] = CornerCell{Corner: c, Result: res}
		return nil
	}
	var observe func(int)
	if opt.OnCorner != nil {
		observe = func(i int) { opt.OnCorner(&cells[i]) }
	}
	if err := solveEach(len(corners), width, opt.Cancel, solve, observe); err != nil {
		return nil, err
	}
	delays := make([]float64, len(cells))
	for i, c := range cells {
		delays[i] = c.Result.DelayPs
	}
	return &CornerReport{Nominal: nominal, Cells: cells, Delay: NewDist(delays)}, nil
}

// schedule resolves a call's Workers into the fan-out's two widths: each
// solve runs at max(workers, 1) goroutines, and max(1, GOMAXPROCS ÷ that)
// solves run at once, so the fan-out owns the cores. solo runs the same
// loop one solve at a time. Every width yields the same bits.
func schedule(workers int, solo bool) (perSolve, concurrent int) {
	perSolve = max(workers, 1)
	if solo {
		return perSolve, 1
	}
	return perSolve, max(1, runtime.GOMAXPROCS(0)/perSolve)
}

// solveEach runs solve(i) for every i in [0, n) as independent solves, at
// most width at once (fanout.Each). solve must write only slot i of its
// results. cancel, when non-nil, is polled before each solve starts; no
// solve starts past an index that has already failed. observe, when
// non-nil, is called for index i as soon as i and every lower index have
// succeeded: in index order, one call at a time, never past a failure,
// and never under a lock the solves take. Returns the lowest-index error,
// so the outcome is a pure function of the indices whatever the width.
func solveEach(n, width int, cancel func() bool, solve func(i int) error, observe func(i int)) error {
	errs := make([]error, n)
	finished := make([]bool, n)
	var mu sync.Mutex
	// failed is the lowest failed index so far (n while none has); next is
	// the lowest index not yet observed; emitting marks the goroutine that
	// is running observe calls.
	failed, next, emitting := n, 0, false
	fanout.Each(n, width, func(i int) {
		mu.Lock()
		skip := i > failed
		mu.Unlock()
		if skip {
			return
		}
		var err error
		if cancel != nil && cancel() {
			err = core.ErrCancelled
		} else {
			err = solve(i)
		}
		mu.Lock()
		errs[i], finished[i] = err, true
		if err != nil {
			failed = min(failed, i)
		}
		if observe != nil && !emitting {
			emitting = true
			for next < failed && finished[next] {
				j := next
				next++
				mu.Unlock()
				observe(j)
				mu.Lock()
			}
			emitting = false
		}
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

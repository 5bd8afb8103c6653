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
	"repro/internal/bench"
	"repro/internal/core"
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
	// Workers is ignored: every corner solves serially, and the local
	// runner solves GOMAXPROCS corners at once.
	//
	// Deprecated: the end-to-end benchmark module still sets it; it goes
	// with that module's next change.
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
	// OnCorner, when non-nil, observes each corner cell as it lands. The
	// local runner calls it in corner order, one call at a time, as soon
	// as that corner and every lower one are solved, and never for a
	// corner past a failed one; a farm runner calls it as the corners'
	// shards stream in. Purely observational: results are bit-identical
	// with or without the hook.
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
// bound whatever its schedule, preserving bit-identity.
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

// CornerSweep is CornerSweepOn with the local runner, inst.RunPlan.
func CornerSweep(inst *bench.Instance, opt CornerOptions) (*CornerReport, error) {
	return CornerSweepOn(inst, opt, inst.RunPlan)
}

// CornerSweepOn solves the instance at the nominal technology and then at
// every one of StandardCorners with the given runner. The plan is the
// nominal cell (index 0) as one batch and the corners (1.., in
// StandardCorners order) as one independent batch of perturbed cells,
// which with warm starts (the default) waits on the nominal cell and
// starts at its sizes and multipliers; Cold solves every corner from
// scratch at once. Each corner is a pure function of its cell, so the
// report is deterministic regardless of hooks, runner, concurrency or
// timing.
func CornerSweepOn(inst *bench.Instance, opt CornerOptions, run bench.Runner) (*CornerReport, error) {
	corners := StandardCorners()
	bounds := resolveBounds(inst, opt.Bounds)
	offset := constantOffset(inst)
	nominal := bench.Batch{
		Duals:         !opt.Cold && !opt.PrimalOnly,
		S1:            opt.ColdLRS,
		Seed:          append([]float64(nil), inst.Eval.X...),
		MaxIterations: opt.MaxIterations,
		Epsilon:       opt.Epsilon,
		Cells:         []bench.Cell{{Index: 0, Bounds: bounds}},
	}
	perturbed := nominal
	perturbed.Duals = false
	perturbed.Cells = make([]bench.Cell, len(corners))
	for i, c := range corners {
		p := c.Perturb()
		perturbed.Cells[i] = bench.Cell{Index: i + 1, Bounds: perturbedBounds(bounds, offset, p), Perturb: &p}
	}
	if !opt.Cold {
		// Warm corners start from the nominal cell's sizes and dual.
		nominalCell := 0
		perturbed.Seed, perturbed.After = nil, &nominalCell
	}

	sched := bench.Schedule{Cancel: opt.Cancel}
	cells := make([]CornerCell, len(corners))
	if opt.OnCorner != nil {
		sched.Observe = func(k int, s *bench.Solved) {
			if k > 0 {
				cells[k-1] = CornerCell{Corner: corners[k-1], Result: s.Result}
				opt.OnCorner(&cells[k-1])
			}
		}
	}
	solved, err := run(bench.Plan{nominal, perturbed}, sched)
	if err != nil {
		return nil, err
	}
	delays := make([]float64, len(cells))
	for i, c := range corners {
		cells[i] = CornerCell{Corner: c, Result: solved[i+1].Result}
		delays[i] = cells[i].Result.DelayPs
	}
	return &CornerReport{Nominal: solved[0].Result, Cells: cells, Delay: NewDist(delays)}, nil
}

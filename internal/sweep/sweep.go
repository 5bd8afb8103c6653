package sweep

import (
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/core"
)

// Options configures one bounds-grid sweep. The zero value sweeps the
// single self-calibrated cell at the instance's derived bounds.
type Options struct {
	// DelayScale and NoiseScale are the grid axes. Cell (i, j) solves with
	// A0 = DelayScale[i]·base.A0 and with the variable part of the noise
	// bound (X_B minus the constant coupling offset, the part sizing can
	// actually trade) scaled by NoiseScale[j]. Factors must be positive
	// and finite; an empty axis defaults to {1}.
	DelayScale, NoiseScale []float64
	// Bounds overrides the base bounds (default bench.DeriveBounds on the
	// instance).
	Bounds *bench.Bounds
	// MaxIterations caps the OGWS outer loop per cell (0 = solver
	// default); Epsilon is the duality-gap / feasibility precision
	// (0 = the paper's 1%).
	MaxIterations int
	Epsilon       float64
	// SweepWorkers bounds how many chains — the spine and the row tails —
	// or, in a seed-independent sweep, cells solve concurrently (0 or
	// negative = all cores). Every cell solves serially, so the sweep
	// level owns the cores.
	SweepWorkers int
	// Cold disables warm-starting: every cell seeds from the instance's
	// initial sizes and solves independently (flat fan-out over all
	// cells). The cold grid is the benchmark baseline the warm engine is
	// measured against.
	Cold bool
	// PrimalOnly restricts warm seeding to the sizes: the dual state (the
	// Lagrange multipliers) restarts from the solver's A1 seed in every
	// cell. The default seeds both halves — the neighbour's final
	// multipliers start each cell's ascent beside the dual optimum, which
	// is where the sweep's iteration-count savings come from (sizes alone
	// cannot shortcut the ascent).
	PrimalOnly bool
	// ColdLRS starts each cell's solve at the lower bounds, the paper's
	// S1, which core.Run applies once per solve (core.Options.WarmStart =
	// false). The default starts it from the seed — the regime where warm
	// seeding and the incremental engine pay off. With ColdLRS and
	// PrimalOnly the OGWS trajectory is independent of the seed, so warm
	// and cold sweeps are bit-identical (the warm-vs-cold oracle test pins
	// exactly this) and Run schedules the warm one as a cold one.
	ColdLRS bool
	// OnCell, when non-nil, is called once per cell immediately after that
	// cell's solve completes, with the fully populated cell — the
	// row-streaming hook long-running callers (the sizing service) use to
	// emit results as they arrive instead of waiting for the whole grid.
	// In a warm sweep, calls within one row arrive in ascending column
	// order (rows solve concurrently and interleave freely); a cold sweep
	// solved locally streams its cells in row-major order. The callback
	// must be safe for concurrent use and must not mutate the cell or
	// retain its slices past the call (read-only access to Result is
	// fine: nothing else writes it). Streaming never
	// affects the solved values — the grid is the same bit-identical
	// row-major Result with or without a callback.
	OnCell func(*Cell)
	// OnProgress, when non-nil, is called once per solver iteration of
	// every cell with the cell's grid position and the iteration's
	// core.IterProgress — the live-streaming hook the sizing service's
	// /watch endpoint feeds from. Like OnCell it must be safe for
	// concurrent use (rows solve concurrently) and never affects the
	// solved values: the grid is bit-identical with or without it.
	OnProgress func(row, col int, p core.IterProgress)
	// Cancel, when non-nil, is polled before each cell's solve and, via
	// core.Options.Cancel, at every iteration boundary inside a cell;
	// once it returns true no further cells start, the in-flight cell
	// stops at its next iteration, and Run returns core.ErrCancelled.
	// Long-running callers use this to shed abandoned work — e.g. the
	// sizing service polls the request context. A sweep whose Cancel
	// never fires solves the exact same grid as one with no hook, so the
	// solved values are unaffected.
	Cancel func() bool
}

// Cell is one solved grid point.
type Cell struct {
	// Row/Col index the cell in the grid; DelayScale/NoiseScale are its
	// axis factors and Bounds the actual solver bounds they produced.
	Row, Col               int
	DelayScale, NoiseScale float64
	Bounds                 bench.Bounds
	// SeedRow/SeedCol identify the already-solved neighbour whose sizes
	// seeded this cell; both are −1 when the cell was seeded from the
	// instance's initial sizes (cold sweeps and the grid origin).
	SeedRow, SeedCol int
	// Result is the full solver outcome at this cell's bounds.
	Result *core.Result
	// SolveSec is the wall-clock of this cell's solve (excluded from the
	// golden fixtures — timing is not deterministic).
	SolveSec float64
}

// Result is one circuit's solved grid.
type Result struct {
	Circuit                string
	Rows, Cols             int
	DelayScale, NoiseScale []float64
	// Cells is row-major: Cells[i*Cols+j] is grid point (i, j), an
	// ordering independent of solve scheduling.
	Cells []Cell
	// Frontier lists the indices (ascending) of the Pareto-minimal cells
	// in (delay, noise, power); see Frontier.
	Frontier []int
}

// At returns the cell at grid point (i, j).
func (r *Result) At(i, j int) *Cell { return &r.Cells[i*r.Cols+j] }

func (o *Options) fill() {
	if len(o.DelayScale) == 0 {
		o.DelayScale = []float64{1}
	}
	if len(o.NoiseScale) == 0 {
		o.NoiseScale = []float64{1}
	}
}

// cellBounds scales the base bounds for one grid point. The noise factor
// scales only the variable part of X_B — the constant coupling offset is
// fixed by the layout, so scaling past it would just manufacture an
// infeasible bound.
func cellBounds(base bench.Bounds, off, fd, fn float64) (bench.Bounds, error) {
	if fd <= 0 || math.IsNaN(fd) || math.IsInf(fd, 0) {
		return base, fmt.Errorf("sweep: delay scale factor must be positive and finite, got %g", fd)
	}
	if fn <= 0 || math.IsNaN(fn) || math.IsInf(fn, 0) {
		return base, fmt.Errorf("sweep: noise scale factor must be positive and finite, got %g", fn)
	}
	b := base
	b.A0 = fd * base.A0
	if base.NoiseBound > 0 {
		b.NoiseBound = off + fn*(base.NoiseBound-off)
	}
	return b, nil
}

// grid builds the unsolved grid for filled options: every cell carries its
// axis factors, resolved bounds and seed metadata — the warm wavefront's
// (cell (i,0) seeds from (i−1,0), cell (i,j) from (i,j−1)), or the
// unseeded (-1, -1) marker for a cold sweep and the grid origin.
func grid(inst *bench.Instance, opt Options) (*Result, error) {
	base := bench.DeriveBounds(inst)
	if opt.Bounds != nil {
		base = *opt.Bounds
	}
	off := inst.Coupling.ConstantOffset()
	rows, cols := len(opt.DelayScale), len(opt.NoiseScale)
	res := &Result{
		Circuit:    inst.Spec.Name,
		Rows:       rows,
		Cols:       cols,
		DelayScale: append([]float64(nil), opt.DelayScale...),
		NoiseScale: append([]float64(nil), opt.NoiseScale...),
		Cells:      make([]Cell, rows*cols),
	}
	for i, fd := range opt.DelayScale {
		for j, fn := range opt.NoiseScale {
			b, err := cellBounds(base, off, fd, fn)
			if err != nil {
				return nil, err
			}
			c := res.At(i, j)
			c.Row, c.Col = i, j
			c.DelayScale, c.NoiseScale = fd, fn
			c.Bounds = b
			switch {
			case opt.Cold || i == 0 && j == 0:
				c.SeedRow, c.SeedCol = -1, -1
			case j == 0:
				c.SeedRow, c.SeedCol = i-1, 0
			default:
				c.SeedRow, c.SeedCol = i, j-1
			}
		}
	}
	return res, nil
}

// wavefront cuts a grid into the batches of its plan, cell k being grid
// point k in row-major order and the instance's initial sizes initX the
// seed of every cell no neighbour seeds. An independent sweep is one
// batch of every cell, each solved from initX. Otherwise the column-0
// spine is one chain (cell (i,0) seeded from (i−1,0)'s sizes and, unless
// PrimalOnly, dual), and each row's eastward tail is a chain that waits
// on its spine cell and starts from that cell's sizes and dual.
func wavefront(res *Result, initX []float64, opt Options, independent bool) bench.Plan {
	// batchOf is the batch of rows [i0, i1) × columns [j0, j1), row by
	// row: the whole grid, one row's tail, or with columns [0, 1) the spine.
	batchOf := func(i0, i1, j0, j1 int) bench.Batch {
		cells := make([]bench.Cell, 0, (i1-i0)*(j1-j0))
		for i := i0; i < i1; i++ {
			for j := j0; j < j1; j++ {
				cells = append(cells, bench.Cell{Index: i*res.Cols + j, Bounds: res.At(i, j).Bounds})
			}
		}
		return bench.Batch{
			Chain:         !independent,
			Duals:         !independent && !opt.PrimalOnly,
			S1:            opt.ColdLRS,
			Seed:          initX,
			MaxIterations: opt.MaxIterations,
			Epsilon:       opt.Epsilon,
			Cells:         cells,
		}
	}
	if independent {
		return bench.Plan{batchOf(0, res.Rows, 0, res.Cols)}
	}
	plan := bench.Plan{batchOf(0, res.Rows, 0, 1)}
	for i := 0; i < res.Rows && res.Cols > 1; i++ {
		spine := i * res.Cols
		tail := batchOf(i, i+1, 1, res.Cols)
		tail.Seed, tail.After = nil, &spine
		plan = append(plan, tail)
	}
	return plan
}

// Run is RunOn with the local runner, inst.RunPlan.
func Run(inst *bench.Instance, opt Options) (*Result, error) {
	return RunOn(inst, opt, inst.RunPlan)
}

// RunOn sweeps the bounds grid over one prebuilt instance with the given
// runner: the local one, or a farm coordinator's, which leases the same
// plan out and returns the same bits. The instance is shared read-only —
// every cell solves on a replica, so the instance's evaluator state (the
// Init sizes) is left untouched and one instance can back any number of
// sweeps. Results come back in row-major grid order with the Pareto
// frontier attached; on any cell error the lowest-index error is
// returned.
//
// A sweep is seed-independent when it is cold, or when every cell starts
// at the lower bounds (ColdLRS) and restarts its dual (PrimalOnly): its
// bits cannot depend on the seeds, which TestSweepWarmColdBitIdentical
// pins, so its cells need no neighbour and all solve at once.
func RunOn(inst *bench.Instance, opt Options, run bench.Runner) (*Result, error) {
	opt.fill()
	res, err := grid(inst, opt)
	if err != nil {
		return nil, err
	}
	initX := append([]float64(nil), inst.Eval.X...)
	p := wavefront(res, initX, opt, opt.Cold || opt.ColdLRS && opt.PrimalOnly)
	sched := bench.Schedule{Concurrent: opt.SweepWorkers, Cancel: opt.Cancel}
	if opt.OnProgress != nil {
		sched.OnIteration = func(k int, it core.IterProgress) { opt.OnProgress(k/res.Cols, k%res.Cols, it) }
	}
	if opt.OnCell != nil {
		sched.Observe = func(k int, s *bench.Solved) {
			c := &res.Cells[k]
			c.Result, c.SolveSec = s.Result, s.SolveSec
			opt.OnCell(c)
		}
	}
	solved, err := run(p, sched)
	if err != nil {
		return nil, err
	}
	for k, s := range solved {
		res.Cells[k].Result, res.Cells[k].SolveSec = s.Result, s.SolveSec
	}
	res.Frontier = Frontier(res.Cells)
	return res, nil
}

// RunSpec builds the instance for one circuit spec — the expensive front
// end, paid once — and sweeps the grid over it.
func RunSpec(spec bench.Spec, pipe bench.PipelineOptions, opt Options) (*Result, error) {
	inst, err := bench.BuildInstance(spec, pipe)
	if err != nil {
		return nil, err
	}
	return Run(inst, opt)
}

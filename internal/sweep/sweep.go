package sweep

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/rc"
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
	// Workers is the per-cell solver width (0 = 1: the sweep level owns
	// the cores by default, since independent cells scale better than one
	// sharded solve). SweepWorkers bounds how many rows — or, in a Cold
	// sweep, cells — solve concurrently (0 = all cores).
	Workers      int
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
	// seeding and the incremental engine pay off. With ColdLRS (and
	// PrimalOnly) the OGWS trajectory is independent of the seed, so warm
	// and cold sweeps are bit-identical (the warm-vs-cold oracle test pins
	// exactly this).
	ColdLRS bool
	// OnCell, when non-nil, is called once per cell immediately after that
	// cell's solve completes, with the fully populated cell — the
	// row-streaming hook long-running callers (the sizing service) use to
	// emit results as they arrive instead of waiting for the whole grid.
	// In a warm sweep, calls within one row arrive in ascending column
	// order (rows solve concurrently and interleave freely); a Cold sweep
	// fans out individual cells, so its calls arrive in no particular
	// order. The callback must be safe for concurrent use and must not
	// mutate the cell or retain its slices past the call (read-only
	// access to Result is fine: nothing else writes it). Streaming never
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
	// stops at its next iteration, and Run returns ErrCancelled.
	// Long-running callers use this to shed abandoned work — e.g. the
	// sizing service polls the request context. A sweep whose Cancel
	// never fires solves the exact same grid as one with no hook, so the
	// solved values are unaffected.
	Cancel func() bool
}

// ErrCancelled is returned by Run when Options.Cancel stopped the sweep
// before every cell solved.
var ErrCancelled = errors.New("sweep: cancelled")

// cancelled polls the Cancel hook.
func (o Options) cancelled() bool { return o.Cancel != nil && o.Cancel() }

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
	// Normalize the widths the way core.Options.validate does: negative
	// means "all cores", explicitly resolved here so neither width falls
	// through unvalidated (0 keeps each level's own default — Workers
	// defaults to 1 serial solver, SweepWorkers to all cores in
	// fanout.Each).
	if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.SweepWorkers < 0 {
		o.SweepWorkers = runtime.GOMAXPROCS(0)
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

// solveCell solves one grid cell through the shared cell kernel
// (bench.SolveCell) from the given sizes and dual, filling the cell's
// Result and SolveSec. It returns the cell's final dual for the next cell
// of a warm chain, nil when the sweep is cold or primal-only. Only the
// solver knobs of o are read, plus OnProgress (called with the cell's
// grid position) and Cancel, which also stops the cell at its next
// iteration boundary.
func (o Options) solveCell(ev *rc.Evaluator, c *Cell, seed []float64, dual *core.DualState) (*core.DualState, error) {
	copt := bench.CellOptions{
		MaxIterations: o.MaxIterations,
		Epsilon:       o.Epsilon,
		Workers:       o.Workers,
		S1:            o.ColdLRS,
		ReturnDual:    !o.Cold && !o.PrimalOnly,
		Cancel:        o.Cancel,
	}
	if o.OnProgress != nil {
		copt.OnIteration = func(p core.IterProgress) { o.OnProgress(c.Row, c.Col, p) }
	}
	s, err := bench.SolveCell(ev, c.Bounds, seed, dual, copt)
	if err != nil {
		if errors.Is(err, core.ErrCancelled) {
			err = ErrCancelled
		}
		return nil, err
	}
	c.Result, c.SolveSec = s.Result, s.SolveSec
	return s.Dual, nil
}

// plan builds the unsolved grid skeleton for filled options: every cell
// carries its axis factors, resolved bounds and seed metadata — the warm
// wavefront's (cell (i,0) seeds from (i−1,0), cell (i,j) from (i,j−1)),
// or the unseeded (-1, -1) marker for a cold sweep and the grid origin.
// The second return is the shared seed for unseeded cells: the instance's
// initial sizes (what bench.RunInstance solves from).
func plan(inst *bench.Instance, opt Options) (*Result, []float64, error) {
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
				return nil, nil, err
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
	return res, append([]float64(nil), inst.Eval.X...), nil
}

// Plan is the exported planning half of Run: it validates the axes and
// returns the unsolved grid skeleton (per-cell bounds, axis factors, seed
// metadata) plus the shared initial-size seed, without solving
// anything. The farm coordinator plans a distributed sweep with exactly
// this skeleton, leases the cells out, and fills the same row-major slots
// the local engine would — so the reassembled grid is the identical
// Result structure either way.
func Plan(inst *bench.Instance, opt Options) (*Result, []float64, error) {
	opt.fill()
	return plan(inst, opt)
}

// Run sweeps the bounds grid over one prebuilt instance. The instance is
// shared read-only — every cell solves on an evaluator replica, so
// the instance's evaluator state (the Init sizes) is left untouched and
// one instance can back any number of sweeps. Results come back in
// row-major grid order with the Pareto frontier attached; on any cell
// error the lowest-index error is returned after in-flight rows finish.
func Run(inst *bench.Instance, opt Options) (*Result, error) {
	opt.fill()
	res, initX, err := plan(inst, opt)
	if err != nil {
		return nil, err
	}
	rows, cols := res.Rows, res.Cols

	if opt.Cold {
		errs := make([]error, len(res.Cells))
		fanout.Each(len(res.Cells), opt.SweepWorkers, func(k int) {
			if opt.cancelled() {
				errs[k] = ErrCancelled
				return
			}
			ev, err := inst.Replica()
			if err != nil {
				errs[k] = err
				return
			}
			c := &res.Cells[k]
			_, errs[k] = opt.solveCell(ev, c, initX, nil)
			if opt.OnCell != nil && errs[k] == nil {
				opt.OnCell(c)
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		res.Frontier = Frontier(res.Cells)
		return res, nil
	}

	// Warm wavefront. Spine first: column 0 cell by cell on one replica,
	// each seeded (sizes and dual state) from the cell above it.
	spine, err := inst.Replica()
	if err != nil {
		return nil, err
	}
	rowDual := make([]*core.DualState, rows)
	seed := initX
	var dual *core.DualState
	for i := 0; i < rows; i++ {
		if opt.cancelled() {
			return nil, ErrCancelled
		}
		c := res.At(i, 0)
		if dual, err = opt.solveCell(spine, c, seed, dual); err != nil {
			return nil, err
		}
		if opt.OnCell != nil {
			opt.OnCell(c)
		}
		seed = c.Result.X
		rowDual[i] = dual
	}
	// Rows fan out: each row walks east on its own replica, seeding every
	// cell from its western neighbour.
	if cols > 1 {
		errs := make([]error, rows)
		fanout.Each(rows, opt.SweepWorkers, func(i int) {
			ev, err := inst.Replica()
			if err != nil {
				errs[i] = err
				return
			}
			rowSeed, rowD := res.At(i, 0).Result.X, rowDual[i]
			for j := 1; j < cols; j++ {
				if opt.cancelled() {
					errs[i] = ErrCancelled
					return
				}
				c := res.At(i, j)
				if rowD, errs[i] = opt.solveCell(ev, c, rowSeed, rowD); errs[i] != nil {
					return
				}
				if opt.OnCell != nil {
					opt.OnCell(c)
				}
				rowSeed = c.Result.X
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
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

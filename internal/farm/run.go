package farm

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// run is one in-flight distributed solve or sweep being assembled by the
// coordinator. All fields are guarded by the coordinator's mu except done,
// which is closed exactly once (under mu) when the run completes, fails,
// or is cancelled, and callbacks, which counts itself.
type run struct {
	id     int64
	spec   api.CircuitSpec
	done   chan struct{}
	closed bool  // done has been closed (complete, failed, or cancelled)
	err    error // terminal error, set before done closes
	dead   bool  // failed or cancelled: results are refused, jobs dropped
	// callbacks counts the onCell/onSample calls handed out and not yet
	// returned. recordCell and recordSample add to it under mu, and only
	// while the run is open, so once done closes it can only fall; await
	// waits for it to drain, so a caller never outlives its callbacks.
	callbacks sync.WaitGroup

	// Sweep assembly state. res is the sweep.Plan skeleton being filled in
	// row-major order; recorded marks which cells have landed (first write
	// wins — duplicates from re-run jobs are bitwise equal, so dropping
	// them is free); remaining counts unrecorded cells.
	res       *sweep.Result
	recorded  []bool
	remaining int
	onCell    func(*sweep.Cell)
	// Warm-wavefront bookkeeping: while spineLeft > 0 the column-0 spine
	// job is still streaming; when it reaches zero the coordinator creates
	// the row-tail jobs, seeding each from its spine cell's recorded sizes
	// and dual. rowDual is nil for primal-only and independent dispatch.
	spineLeft int
	rowDual   []*core.DualState
	sweepOpt  sweep.Options

	// Solve state: the single job's outcome.
	solveRes *api.SolveResult

	// Monte-Carlo assembly state. mcSamples is indexed by global sample
	// index minus mcLo; mcRecorded marks landed samples (first write wins,
	// like sweep cells — duplicates from re-runs are bitwise equal);
	// mcLeft counts unrecorded samples.
	mcSamples  []variation.Sample
	mcRecorded []bool
	mcLeft     int
	mcLo       int
	onSample   func(*variation.Sample)
}

// finished reports whether the run stopped accepting results (completed,
// failed, or cancelled). Caller holds c.mu.
func (r *run) finished() bool {
	return r.dead || r.remaining == 0 && r.res != nil || r.solveRes != nil ||
		r.mcRecorded != nil && r.mcLeft == 0
}

// closeLocked closes the run's done channel exactly once. Caller holds
// c.mu.
func (r *run) closeLocked() {
	if !r.closed {
		r.closed = true
		close(r.done)
	}
}

// failLocked marks the run dead with a terminal error and wakes the
// waiter. Pending jobs still in the queue are dropped lazily by popLocked;
// leased jobs' result streams get 410 and their reaped re-queues are
// dropped. Caller holds c.mu.
func (c *Coordinator) failLocked(r *run, err error) {
	if r.closed {
		return
	}
	r.err = err
	r.dead = true
	c.runsFailed++
	r.closeLocked()
}

// completeLocked closes out a finished run. Caller holds c.mu.
func (c *Coordinator) completeLocked(r *run) {
	c.runsCompleted++
	r.closeLocked()
}

// newRunLocked allocates a run. Caller holds c.mu.
func (c *Coordinator) newRunLocked(spec api.CircuitSpec) *run {
	c.nextRun++
	r := &run{id: c.nextRun, spec: spec, done: make(chan struct{})}
	c.runs[r.id] = r
	return r
}

// addJobLocked creates and enqueues one job for the run. Caller holds
// c.mu.
func (c *Coordinator) addJobLocked(r *run, seq int, solve *api.SolveJob, sw *api.SweepJob, mc *api.MonteCarloJob) {
	c.nextJob++
	j := &job{
		run: r,
		seq: seq,
		msg: api.Job{ID: c.nextJob, Circuit: r.spec, Solve: solve, Sweep: sw, MonteCarlo: mc},
	}
	c.enqueueLocked(j)
}

// await blocks until the run finishes or ctx is cancelled, and then until
// no onCell/onSample callback of the run is still running; cancellation
// kills the run so its jobs stop being dispatched and in-flight results
// are refused.
func (c *Coordinator) await(ctx context.Context, r *run) error {
	select {
	case <-r.done:
	case <-ctx.Done():
		c.mu.Lock()
		if !r.closed {
			r.err = ctx.Err()
			r.dead = true
			r.closeLocked()
		}
		c.mu.Unlock()
	}
	r.callbacks.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.runs, r.id)
	return r.err
}

// Solve dispatches one full OGWS solve to the farm and waits for its
// result. The job ships every input the solve depends on (bounds, seed
// sizes, dual multipliers, solver knobs), so whichever worker leases it
// returns the identical bytes the serving host's own solver would produce.
func (c *Coordinator) Solve(ctx context.Context, spec api.CircuitSpec, job api.SolveJob) (*api.SolveResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	r := c.newRunLocked(spec)
	c.addJobLocked(r, 0, &job, nil, nil)
	c.mu.Unlock()
	if err := c.await(ctx, r); err != nil {
		return nil, err
	}
	if r.solveRes == nil {
		return nil, fmt.Errorf("farm: solve run %d finished without a result", r.id)
	}
	return r.solveRes, nil
}

// Sweep dispatches a bounds-grid sweep across the farm and reassembles
// the row-major grid. The plan is the exact skeleton the local engine
// (sweep.Run) walks, and the dispatch mirrors its schedule:
//
//   - Cold sweeps (and warm sweeps under ColdLRS+PrimalOnly, whose OGWS
//     trajectory is provably seed-independent — the warm-vs-cold oracle
//     pins it) fan out as one independent job per grid row, every cell
//     seeded from the instance's initial sizes.
//   - Warm sweeps dispatch the column-0 spine as a single chained job
//     (cell i seeded from cell i−1's sizes and dual, exactly the local
//     spine walk); once the spine is fully recorded, each row's eastward
//     tail becomes a chained job carrying its spine cell's sizes and dual
//     in the lease. Neighbour seeds always ship with the lease — a worker
//     never needs another worker's state.
//
// Every job's outcome is a pure function of its lease message, so worker
// death followed by re-queue re-produces the missing cells bitwise and the
// assembled grid equals the single-process result byte for byte.
//
// Only opt's solver knobs, axes, bounds, and OnCell are honoured;
// SweepWorkers is meaningless here (parallelism is the worker fleet) and
// Cancel is replaced by ctx. OnCell runs on coordinator goroutines as
// results stream in: cells within one row arrive in ascending column
// order, rows interleave freely — the same contract as the local engine.
func (c *Coordinator) Sweep(ctx context.Context, spec api.CircuitSpec, inst *bench.Instance, opt sweep.Options) (*sweep.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res, initX, err := sweep.Plan(inst, opt)
	if err != nil {
		return nil, err
	}
	rows, cols := res.Rows, res.Cols
	// Seed-independent dispatch covers cold sweeps by definition and the
	// ColdLRS+PrimalOnly regime by the pinned warm-vs-cold oracle: the
	// solved bits cannot depend on the seed, so cells need no neighbour
	// state and every row can go out immediately.
	independent := opt.Cold || (opt.ColdLRS && opt.PrimalOnly)
	if !opt.Cold {
		// Fill the wavefront seeding metadata the local warm engine records
		// (cold grids keep the unseeded −1 markers from the plan).
		for i := 1; i < rows; i++ {
			res.At(i, 0).SeedRow, res.At(i, 0).SeedCol = i-1, 0
		}
		for i := 0; i < rows; i++ {
			for j := 1; j < cols; j++ {
				res.At(i, j).SeedRow, res.At(i, j).SeedCol = i, j-1
			}
		}
	}

	c.mu.Lock()
	r := c.newRunLocked(spec)
	r.res = res
	r.recorded = make([]bool, len(res.Cells))
	r.remaining = len(res.Cells)
	r.onCell = opt.OnCell
	r.sweepOpt = opt
	if independent {
		for i := 0; i < rows; i++ {
			c.addJobLocked(r, i, nil, &api.SweepJob{
				Seed:  initX,
				Cells: cellSpecs(res, i, 0, cols),

				MaxIterations: opt.MaxIterations,
				Epsilon:       opt.Epsilon,
				PrimalOnly:    opt.PrimalOnly,
				ColdLRS:       opt.ColdLRS,
			}, nil)
		}
	} else {
		r.spineLeft = rows
		r.rowDual = make([]*core.DualState, rows)
		c.addJobLocked(r, 0, nil, &api.SweepJob{
			Chain:      true,
			ReturnDual: !opt.PrimalOnly,
			Seed:       initX,
			Cells:      spineSpecs(res),

			MaxIterations: opt.MaxIterations,
			Epsilon:       opt.Epsilon,
			PrimalOnly:    opt.PrimalOnly,
			ColdLRS:       opt.ColdLRS,
		}, nil)
	}
	c.mu.Unlock()

	if err := c.await(ctx, r); err != nil {
		return nil, err
	}
	res.Frontier = sweep.Frontier(res.Cells)
	return res, nil
}

// cellSpecs extracts the wire specs for row i, columns [j0, j1).
func cellSpecs(res *sweep.Result, i, j0, j1 int) []api.CellSpec {
	specs := make([]api.CellSpec, 0, j1-j0)
	for j := j0; j < j1; j++ {
		c := res.At(i, j)
		specs = append(specs, api.CellSpec{
			Row: i, Col: j,
			DelayScale: c.DelayScale, NoiseScale: c.NoiseScale,
			Bounds: c.Bounds,
		})
	}
	return specs
}

// spineSpecs extracts column 0 top to bottom — the warm wavefront spine.
func spineSpecs(res *sweep.Result) []api.CellSpec {
	specs := make([]api.CellSpec, 0, res.Rows)
	for i := 0; i < res.Rows; i++ {
		c := res.At(i, 0)
		specs = append(specs, api.CellSpec{
			Row: i, Col: 0,
			DelayScale: c.DelayScale, NoiseScale: c.NoiseScale,
			Bounds: c.Bounds,
		})
	}
	return specs
}

// recordCell lands one streamed cell result into its run's grid. First
// write wins: a duplicate (an at-least-once re-run after a reap) is
// bitwise equal by the determinism contract, so it is simply dropped.
// Returns the cell to hand to the run's OnCell callback (nil for
// duplicates, for a closed run, and when the run has no callback), counted
// into r.callbacks — the caller invokes it outside the lock through
// observe.
func (c *Coordinator) recordCell(j *job, cr *api.CellResult) (*sweep.Cell, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := j.run
	if r.res == nil {
		return nil, fmt.Errorf("farm: cell result for non-sweep run %d", r.id)
	}
	if cr.Row < 0 || cr.Row >= r.res.Rows || cr.Col < 0 || cr.Col >= r.res.Cols {
		return nil, fmt.Errorf("farm: cell (%d,%d) outside the %dx%d grid of run %d", cr.Row, cr.Col, r.res.Rows, r.res.Cols, r.id)
	}
	if cr.Result == nil {
		return nil, fmt.Errorf("farm: cell (%d,%d) of run %d arrived without a result", cr.Row, cr.Col, r.id)
	}
	idx := cr.Row*r.res.Cols + cr.Col
	if r.closed || r.recorded[idx] {
		// A duplicate from a re-run is bitwise equal, and a closed run
		// (finished, failed, or cancelled) takes nothing more: drop.
		return nil, nil
	}
	r.recorded[idx] = true
	r.remaining--
	cell := &r.res.Cells[idx]
	cell.Result = cr.Result
	cell.SolveSec = cr.SolveSec
	if w := c.workers[j.worker]; w != nil {
		w.cellsSolved++
	}
	if r.spineLeft > 0 && cr.Col == 0 {
		if r.rowDual != nil {
			r.rowDual[cr.Row] = cr.Dual
		}
		r.spineLeft--
		if r.spineLeft == 0 {
			c.addRowJobsLocked(r)
		}
	}
	var observed *sweep.Cell
	if r.onCell != nil {
		observed = cell
		r.callbacks.Add(1)
	}
	if r.remaining == 0 {
		c.completeLocked(r)
	}
	return observed, nil
}

// addRowJobsLocked creates the eastward row-tail jobs once the spine is
// fully recorded: row i's job chains from the spine cell's solved sizes
// (and, unless primal-only, its dual multipliers), both shipped inside the
// lease. Caller holds c.mu.
func (c *Coordinator) addRowJobsLocked(r *run) {
	rows, cols := r.res.Rows, r.res.Cols
	if cols <= 1 {
		return
	}
	opt := r.sweepOpt
	for i := 0; i < rows; i++ {
		var dual *core.DualState
		if r.rowDual != nil {
			dual = r.rowDual[i]
		}
		c.addJobLocked(r, 1+i, nil, &api.SweepJob{
			Chain: true,
			Seed:  r.res.At(i, 0).Result.X,
			Dual:  dual,
			Cells: cellSpecs(r.res, i, 1, cols),

			MaxIterations: opt.MaxIterations,
			Epsilon:       opt.Epsilon,
			PrimalOnly:    opt.PrimalOnly,
			ColdLRS:       opt.ColdLRS,
		}, nil)
	}
}

// MonteCarlo dispatches a Monte-Carlo run across the farm and
// reassembles its sample set in global index order. The job describes
// the full range [Lo, Hi); the coordinator cuts it into contiguous
// shards — one per live worker, at least one, at most one per sample —
// and every shard ships only (seed, sigmas, range, bounds, knobs).
// Sample i's perturbation is a pure function of (seed, i, sigmas) and
// its solve a pure function of the perturbed instance, so the
// reassembled set equals the single-process variation.MonteCarlo bytes
// regardless of how the range was cut, which workers ran which shard, or
// how many died and were re-queued mid-shard.
//
// onSample, when non-nil, observes samples as they are first recorded,
// on coordinator goroutines, in arrival order (shards interleave;
// within one shard indices ascend) — the same observational contract as
// Sweep's OnCell.
func (c *Coordinator) MonteCarlo(ctx context.Context, spec api.CircuitSpec, job api.MonteCarloJob, onSample func(*variation.Sample)) ([]variation.Sample, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := job.Sigmas.Validate(); err != nil {
		return nil, err
	}
	if job.Lo < 0 || job.Hi <= job.Lo {
		return nil, fmt.Errorf("farm: montecarlo range [%d, %d) is empty or negative", job.Lo, job.Hi)
	}
	k := job.Hi - job.Lo
	shards := c.LiveWorkers()
	if shards < 1 {
		shards = 1
	}
	if shards > k {
		shards = k
	}

	c.mu.Lock()
	r := c.newRunLocked(spec)
	r.mcSamples = make([]variation.Sample, k)
	r.mcRecorded = make([]bool, k)
	r.mcLeft = k
	r.mcLo = job.Lo
	r.onSample = onSample
	for s := 0; s < shards; s++ {
		shard := job
		shard.Lo = job.Lo + s*k/shards
		shard.Hi = job.Lo + (s+1)*k/shards
		c.addJobLocked(r, s, nil, nil, &shard)
	}
	c.mu.Unlock()

	if err := c.await(ctx, r); err != nil {
		return nil, err
	}
	return r.mcSamples, nil
}

// recordSample lands one streamed Monte-Carlo sample into its run's
// set. First write wins, exactly as recordCell: a duplicate from an
// at-least-once re-run is bitwise equal by the determinism contract, so
// it is dropped. Returns the sample to hand to the run's onSample hook
// (nil for duplicates, for a closed run, and when the run has no hook),
// counted into r.callbacks exactly as recordCell's cell.
func (c *Coordinator) recordSample(j *job, sr *api.MCSampleResult) (*variation.Sample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := j.run
	if r.mcRecorded == nil {
		return nil, fmt.Errorf("farm: sample result for non-montecarlo run %d", r.id)
	}
	idx := sr.Index - r.mcLo
	if idx < 0 || idx >= len(r.mcRecorded) {
		return nil, fmt.Errorf("farm: sample %d outside the %d-sample set of run %d", sr.Index, len(r.mcRecorded), r.id)
	}
	if sr.Result == nil {
		return nil, fmt.Errorf("farm: sample %d of run %d arrived without a result", sr.Index, r.id)
	}
	if r.closed || r.mcRecorded[idx] {
		return nil, nil // a duplicate, or a closed run: drop, as in recordCell
	}
	r.mcRecorded[idx] = true
	r.mcLeft--
	r.mcSamples[idx] = variation.Sample{Index: sr.Index, Perturb: sr.Perturb, Result: sr.Result}
	if w := c.workers[j.worker]; w != nil {
		w.samplesSolved++
	}
	var observed *variation.Sample
	if r.onSample != nil {
		observed = &r.mcSamples[idx]
		r.callbacks.Add(1)
	}
	if r.mcLeft == 0 {
		c.completeLocked(r)
	}
	return observed, nil
}

// observe runs one callback that recordCell or recordSample counted into
// r.callbacks, and counts it out however fn returns.
func (r *run) observe(fn func()) {
	defer r.callbacks.Done()
	fn()
}

// recordSolve lands a solve job's result.
func (c *Coordinator) recordSolve(j *job, sr *api.SolveResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := j.run
	if r.res != nil {
		return fmt.Errorf("farm: solve result for sweep run %d", r.id)
	}
	if sr.Result == nil {
		return fmt.Errorf("farm: solve result for run %d arrived without a result", r.id)
	}
	if r.solveRes != nil {
		return nil // duplicate from a re-run: bitwise equal, drop
	}
	r.solveRes = sr
	if w := c.workers[j.worker]; w != nil {
		w.solvesDone++
	}
	c.completeLocked(r)
	return nil
}

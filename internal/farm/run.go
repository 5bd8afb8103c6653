package farm

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// run is one in-flight distributed run being assembled by the
// coordinator: a plan of cells, leased out in batches. All fields are
// guarded by the coordinator's mu except done, which is closed exactly
// once (under mu) when the run completes, fails, or is cancelled, and
// callbacks, which counts itself.
type run struct {
	id     int64
	spec   api.CircuitSpec
	done   chan struct{}
	closed bool  // done has been closed (complete, failed, or cancelled)
	err    error // terminal error, set before done closes
	dead   bool  // failed or cancelled: results are refused, jobs dropped
	// callbacks counts the onCell calls handed out and not yet returned.
	// recordCell adds to it under mu, and only while the run is open, so
	// once done closes it can only fall; await waits for it to drain, so a
	// caller never outlives its callbacks.
	callbacks sync.WaitGroup

	// cells holds the recorded cells by index; recorded marks which have
	// landed (first write wins — duplicates from re-run jobs are bitwise
	// equal, so dropping them is free); remaining counts unrecorded cells.
	cells     []api.CellResult
	recorded  []bool
	remaining int
	onCell    func(*api.CellResult)
	// waiting holds the batches not queued yet, by the index of the cell
	// whose recorded sizes and dual seed them: a warm sweep's row tails
	// wait on their spine cells.
	waiting map[int][]*job
}

// finished reports whether the run stopped accepting results (completed,
// failed, or cancelled). Caller holds c.mu.
func (r *run) finished() bool { return r.dead || r.remaining == 0 }

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

// batch is one job of a plan: its wire message (the coordinator fills in
// the ID and circuit) and the index of the cell whose recorded sizes and
// dual seed it, or -1 for a batch that ships its own seed and is queued
// at once.
type batch struct {
	msg   api.Job
	after int
}

// dispatch runs a plan of n cells, indexed 0..n-1 across its batches, and
// returns the recorded cells by index. Ready batches are queued in plan
// order; a waiting batch is queued once its seed cell is recorded, with
// that cell's sizes and dual shipped in its lease. onCell, when non-nil,
// observes each cell as it is first recorded, on coordinator goroutines,
// outside the lock: batches interleave, and within one batch cells arrive
// in the order the worker streams them.
func (c *Coordinator) dispatch(ctx context.Context, spec api.CircuitSpec, n int, plan []batch, onCell func(*api.CellResult)) ([]api.CellResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.nextRun++
	r := &run{
		id:        c.nextRun,
		spec:      spec,
		done:      make(chan struct{}),
		cells:     make([]api.CellResult, n),
		recorded:  make([]bool, n),
		remaining: n,
		onCell:    onCell,
		waiting:   map[int][]*job{},
	}
	c.runs[r.id] = r
	for seq, b := range plan {
		c.nextJob++
		j := &job{run: r, seq: seq, msg: b.msg}
		j.msg.ID, j.msg.Circuit = c.nextJob, spec
		if b.after >= 0 {
			r.waiting[b.after] = append(r.waiting[b.after], j)
		} else {
			c.enqueueLocked(j)
		}
	}
	c.mu.Unlock()
	if err := c.await(ctx, r); err != nil {
		return nil, err
	}
	return r.cells, nil
}

// await blocks until the run finishes or ctx is cancelled, and then until
// no onCell callback of the run is still running; cancellation kills the
// run so its jobs stop being dispatched and in-flight results are refused.
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

// recordCell lands one streamed cell in its run. The cell must be one of
// the job's own cells; anything else is refused and nothing is recorded.
// First write wins: a duplicate (an at-least-once re-run after a reap) is
// bitwise equal by the determinism contract, so it is simply dropped.
// Recording a cell that seeds waiting batches ships its sizes and dual in
// their messages and queues them. Returns the cell to hand to the run's
// onCell hook (nil for duplicates, for a closed run, and when the run has
// no hook), counted into r.callbacks — the caller invokes it outside the
// lock through observe.
func (c *Coordinator) recordCell(j *job, cr *api.CellResult) (*api.CellResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := j.run
	if !slices.ContainsFunc(j.msg.Cells, func(cell api.Cell) bool { return cell.Index == cr.Index }) {
		return nil, fmt.Errorf("farm: cell %d is not one of job %d's cells", cr.Index, j.msg.ID)
	}
	if cr.Result == nil {
		return nil, fmt.Errorf("farm: cell %d of job %d arrived without a result", cr.Index, j.msg.ID)
	}
	if r.closed || r.recorded[cr.Index] {
		// A duplicate from a re-run is bitwise equal, and a closed run
		// (finished, failed, or cancelled) takes nothing more: drop.
		return nil, nil
	}
	r.recorded[cr.Index] = true
	r.remaining--
	r.cells[cr.Index] = *cr
	if w := c.workers[j.worker]; w != nil {
		w.cellsSolved++
	}
	for _, next := range r.waiting[cr.Index] {
		next.msg.Seed, next.msg.Dual = cr.Result.X, cr.Dual
		c.enqueueLocked(next)
	}
	delete(r.waiting, cr.Index)
	var observed *api.CellResult
	if r.onCell != nil {
		observed = &r.cells[cr.Index]
		r.callbacks.Add(1)
	}
	if r.remaining == 0 {
		c.completeLocked(r)
	}
	return observed, nil
}

// unrecordedLocked returns the first of the job's cells not yet recorded,
// or -1 when every one has landed. Caller holds c.mu.
func (j *job) unrecordedLocked() int {
	for _, cell := range j.msg.Cells {
		if !j.run.recorded[cell.Index] {
			return cell.Index
		}
	}
	return -1
}

// observe runs one callback that recordCell counted into r.callbacks, and
// counts it out however fn returns.
func (r *run) observe(fn func()) {
	defer r.callbacks.Done()
	fn()
}

// Solve dispatches one full OGWS solve, a batch of one cell, and waits for
// it. The batch ships every input the kernel reads — bounds, seed sizes,
// dual, budget, start, and whether to keep the dual — so whichever worker
// leases it returns the bytes bench.SolveCell gives on the serving host.
// opt's width and hooks are not shipped: the worker picks its own width,
// and results are bit-identical at every width.
func (c *Coordinator) Solve(ctx context.Context, spec api.CircuitSpec, b bench.Bounds, seed []float64, dual *core.DualState, opt bench.CellOptions) (*bench.Solved, error) {
	cells, err := c.dispatch(ctx, spec, 1, []batch{{after: -1, msg: api.Job{
		Duals:         opt.ReturnDual,
		S1:            opt.S1,
		Seed:          seed,
		Dual:          dual,
		MaxIterations: opt.MaxIterations,
		Epsilon:       opt.Epsilon,
		Cells:         []api.Cell{{Bounds: b}},
	}}}, nil)
	if err != nil {
		return nil, err
	}
	return &cells[0].Solved, nil
}

// Sweep dispatches a bounds-grid sweep across the farm and reassembles
// the row-major grid. The plan is the exact skeleton the local engine
// (sweep.Run) walks, cell k being grid point k in row-major order, and
// the dispatch mirrors its schedule:
//
//   - Cold sweeps (and warm sweeps under ColdLRS+PrimalOnly, whose OGWS
//     trajectory is provably seed-independent — the warm-vs-cold oracle
//     pins it) fan out as one independent batch per grid row, every cell
//     seeded from the instance's initial sizes.
//   - Warm sweeps dispatch the column-0 spine as one chain (cell i seeded
//     from cell i−1's sizes and dual, exactly the local spine walk); each
//     row's eastward tail is a chain that waits on its spine cell and is
//     queued, carrying that cell's sizes and dual, once the cell is
//     recorded. Neighbour seeds always ship with the lease — a worker
//     never needs another worker's state.
//
// Every batch's outcome is a pure function of its lease message, so
// worker death followed by re-queue re-produces the missing cells bitwise
// and the assembled grid equals the single-process result byte for byte.
//
// Only opt's solver knobs, axes, bounds, and OnCell are honoured;
// SweepWorkers is meaningless here (parallelism is the worker fleet) and
// Cancel is replaced by ctx. OnCell runs on coordinator goroutines as
// results stream in: cells within one row arrive in ascending column
// order, rows interleave freely — the same contract as the local engine.
func (c *Coordinator) Sweep(ctx context.Context, spec api.CircuitSpec, inst *bench.Instance, opt sweep.Options) (*sweep.Result, error) {
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
	// batchOf is the batch of rows [i0, i1) × columns [j0, j1), row by
	// row: one row's cells, or with columns [0, 1) the warm wavefront spine.
	batchOf := func(i0, i1, j0, j1 int) api.Job {
		cells := make([]api.Cell, 0, (i1-i0)*(j1-j0))
		for i := i0; i < i1; i++ {
			for j := j0; j < j1; j++ {
				cells = append(cells, api.Cell{Index: i*cols + j, Bounds: res.At(i, j).Bounds})
			}
		}
		return api.Job{
			Chain:         !independent,
			Duals:         !independent && !opt.PrimalOnly,
			S1:            opt.ColdLRS,
			Seed:          initX,
			MaxIterations: opt.MaxIterations,
			Epsilon:       opt.Epsilon,
			Cells:         cells,
		}
	}
	var plan []batch
	if independent {
		for i := 0; i < rows; i++ {
			plan = append(plan, batch{msg: batchOf(i, i+1, 0, cols), after: -1})
		}
	} else {
		plan = append(plan, batch{msg: batchOf(0, rows, 0, 1), after: -1})
		for i := 0; i < rows && cols > 1; i++ {
			tail := batchOf(i, i+1, 1, cols)
			tail.Seed = nil // shipped from spine cell (i, 0) once it lands
			plan = append(plan, batch{msg: tail, after: i * cols})
		}
	}
	var onCell func(*api.CellResult)
	if opt.OnCell != nil {
		onCell = func(cr *api.CellResult) {
			cell := &res.Cells[cr.Index]
			cell.Result, cell.SolveSec = cr.Result, cr.SolveSec
			opt.OnCell(cell)
		}
	}
	solved, err := c.dispatch(ctx, spec, len(res.Cells), plan, onCell)
	if err != nil {
		return nil, err
	}
	for k := range res.Cells {
		res.Cells[k].Result, res.Cells[k].SolveSec = solved[k].Result, solved[k].SolveSec
	}
	res.Frontier = sweep.Frontier(res.Cells)
	return res, nil
}

// MonteCarlo dispatches a Monte-Carlo run across the farm and
// reassembles its sample set in index order. The coordinator draws the
// run's plan (variation.Draw) and cuts its cells into contiguous
// independent batches — one per live worker, at least one, at most one
// per sample — and every cell ships its drawn perturbation and the bounds
// it is solved against, which encoding/json round-trips bit for bit.
// Each sample's solve is a pure function of its cell, so the reassembled
// set equals the single-process variation.MonteCarlo bytes regardless of
// how the samples were cut, which workers ran which batch, or how many
// died and were re-queued mid-batch.
//
// Only opt's sample-set fields (Samples, Seed, Sigmas, Bounds), budget
// and OnSample are honoured. OnSample observes samples as they are first
// recorded, on coordinator goroutines, in arrival order (batches
// interleave; within one batch indices ascend) — the same observational
// contract as Sweep's OnCell.
func (c *Coordinator) MonteCarlo(ctx context.Context, spec api.CircuitSpec, inst *bench.Instance, opt variation.MCOptions) ([]variation.Sample, error) {
	_, samples, bounds, err := variation.Draw(inst, opt)
	if err != nil {
		return nil, err
	}
	k := len(samples)
	shards := min(max(c.LiveWorkers(), 1), k)
	seed := append([]float64(nil), inst.Eval.X...)
	plan := make([]batch, shards)
	for s := range plan {
		lo, hi := s*k/shards, (s+1)*k/shards
		cells := make([]api.Cell, 0, hi-lo)
		for i := lo; i < hi; i++ {
			p := samples[i].Perturb
			cells = append(cells, api.Cell{Index: i, Bounds: bounds[i], Perturb: &p})
		}
		plan[s] = batch{after: -1, msg: api.Job{
			Seed:          seed,
			MaxIterations: opt.MaxIterations,
			Epsilon:       opt.Epsilon,
			Cells:         cells,
		}}
	}
	var onCell func(*api.CellResult)
	if opt.OnSample != nil {
		onCell = func(cr *api.CellResult) {
			s := &samples[cr.Index]
			s.Result = cr.Result
			opt.OnSample(s)
		}
	}
	solved, err := c.dispatch(ctx, spec, k, plan, onCell)
	if err != nil {
		return nil, err
	}
	for i := range samples {
		samples[i].Result = solved[i].Result
	}
	return samples, nil
}

package farm

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bench"
	"repro/internal/farm/api"
)

// run is one in-flight distributed run being assembled by the
// coordinator: a plan of cells, leased out in batches. All fields are
// guarded by the coordinator's mu except done, which is closed exactly
// once (under mu) when the run completes, fails, or is cancelled, and
// callbacks, which counts itself.
type run struct {
	id     int64
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
	onCell    func(int, *bench.Solved)
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

// Runner is the farm's bench.Runner for one circuit: it dispatches a plan
// to the workers (see dispatch) until the run completes or ctx ends it.
// Of the schedule it honours only Observe; each worker fans a batch out
// over its own cores, iterations are not streamed, and ctx replaces
// Cancel.
func (c *Coordinator) Runner(ctx context.Context, spec api.CircuitSpec) bench.Runner {
	return func(plan bench.Plan, s bench.Schedule) ([]*bench.Solved, error) {
		return c.dispatch(ctx, spec, plan, s.Observe)
	}
}

// dispatch runs a plan on the workers and returns its recorded cells by
// index. A chain goes out as one job and an independent batch as one
// contiguous shard per live worker (at most one per cell), queued in plan
// order, except that a waiting batch's jobs are queued once its seed cell
// is recorded, with that cell's sizes and dual in their leases. observe,
// when non-nil, sees each cell as it is first recorded, on coordinator
// goroutines, outside the lock: jobs interleave, and a job's cells arrive
// in index order.
func (c *Coordinator) dispatch(ctx context.Context, spec api.CircuitSpec, plan bench.Plan, observe func(int, *bench.Solved)) ([]*bench.Solved, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n, err := plan.Size()
	if err != nil {
		return nil, err
	}
	shards := max(c.LiveWorkers(), 1)
	c.mu.Lock()
	c.nextRun++
	r := &run{
		id:        c.nextRun,
		done:      make(chan struct{}),
		cells:     make([]api.CellResult, n),
		recorded:  make([]bool, n),
		remaining: n,
		onCell:    observe,
		waiting:   map[int][]*job{},
	}
	c.runs[r.id] = r
	seq := 0
	for _, b := range plan {
		parts := 1
		if !b.Chain {
			parts = min(shards, len(b.Cells))
		}
		for s := 0; s < parts; s++ {
			c.nextJob++
			j := &job{run: r, seq: seq, msg: api.Job{ID: c.nextJob, Circuit: spec, Batch: b}}
			j.msg.Cells = b.Cells[s*len(b.Cells)/parts : (s+1)*len(b.Cells)/parts]
			seq++
			if b.After != nil {
				r.waiting[*b.After] = append(r.waiting[*b.After], j)
			} else {
				c.enqueueLocked(j)
			}
		}
	}
	c.mu.Unlock()
	if err := c.await(ctx, r); err != nil {
		return nil, err
	}
	out := make([]*bench.Solved, n)
	for i := range r.cells {
		out[i] = &r.cells[i].Solved
	}
	return out, nil
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
	if !slices.ContainsFunc(j.msg.Cells, func(cell bench.Cell) bool { return cell.Index == cr.Index }) {
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

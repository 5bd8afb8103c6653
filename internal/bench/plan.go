package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/rc"
)

// Cell is one solve of a plan: its index in the run (a row-major grid
// position, a corner, a Monte-Carlo sample index, 0 for a lone solve),
// its fully resolved bounds, and the technology perturbation of its
// replica, nil for the nominal technology.
type Cell struct {
	Index   int         `json:"index"`
	Bounds  Bounds      `json:"bounds"`
	Perturb *rc.Perturb `json:"perturb,omitempty"`
}

// Batch is one unit of a plan: cells that share a start and a solve
// budget. The farm leases a batch as one job (api.Job embeds it), so its
// JSON form is the wire's.
type Batch struct {
	// Chain solves the cells in order on one evaluator, each from its
	// predecessor's sizes (and, with Duals, dual), the first from Seed and
	// Dual. Otherwise every cell solves on a fresh replica from Seed and
	// Dual, and the batch may fan out. A chain carries no Perturb.
	Chain bool `json:"chain,omitempty"`
	// Duals keeps every cell's final dual, for the cells and batches it
	// seeds and in the farm's result lines.
	Duals bool `json:"duals,omitempty"`
	// S1 starts every solve at the lower bounds, the paper's S1, instead
	// of at its seed sizes (CellOptions.S1).
	S1   bool            `json:"s1,omitempty"`
	Seed []float64       `json:"seed"`
	Dual *core.DualState `json:"dual,omitempty"`
	// MaxIterations and Epsilon are every cell's solve budget.
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Cells         []Cell  `json:"cells"`
	// After, when non-nil, names a cell of an earlier batch whose sizes
	// and dual seed this one in place of Seed and Dual; the batch starts
	// once that cell is solved. The farm ships them in the lease, so
	// After never goes on the wire.
	After *int `json:"-"`
}

// Plan is a workload as cells indexed 0..n−1 across its batches: a solve
// is one batch of one cell, a sweep its spine chain plus one waiting row
// tail per row, corners a nominal batch plus the perturbed batch waiting
// on it, a Monte-Carlo run one batch of perturbed cells. When chains list
// their cells in ascending order and every batch waits on a cell below
// its own, a run's outcome, its error included, is a pure function of it.
type Plan []Batch

// Size checks the plan's shape and returns its cell count: every batch
// has cells, every index in 0..n−1 appears exactly once, every After
// names a cell of an earlier batch, and no chain carries a perturbed cell.
func (p Plan) Size() (int, error) {
	n := 0
	for _, b := range p {
		n += len(b.Cells)
	}
	seen := make([]bool, n)
	for bi, b := range p {
		if len(b.Cells) == 0 || b.After != nil && (*b.After < 0 || *b.After >= n || !seen[*b.After]) {
			return 0, fmt.Errorf("bench: batch %d has no cells or waits on no cell of an earlier batch", bi)
		}
		for _, c := range b.Cells {
			if c.Index < 0 || c.Index >= n || seen[c.Index] {
				return 0, fmt.Errorf("bench: cell index %d is out of range or repeated in a plan of %d cells", c.Index, n)
			}
			if b.Chain && c.Perturb != nil {
				return 0, fmt.Errorf("bench: cell %d: a chain carries no perturbed cells", c.Index)
			}
			seen[c.Index] = true
		}
	}
	return n, nil
}

// Runner runs a plan and returns its solved cells by index: Instance.RunPlan
// here, or a farm coordinator's dispatch. Both solve every cell through
// SolveCell from the same inputs, so they return the same bits.
type Runner func(Plan, Schedule) ([]*Solved, error)

// Schedule is how a run goes besides its plan: the local runner's width
// and the hooks. The farm honours only Observe; its workers pick their own
// width, it streams no iterations, and its context replaces Cancel.
type Schedule struct {
	// Concurrent bounds the chains and independent cells solving at once
	// (0 = GOMAXPROCS); every solve runs serially. Results are
	// bit-identical at every width.
	Concurrent int
	// OnIteration, when non-nil, sees every solver iteration of the cell
	// with the given index; iterations of different cells interleave.
	OnIteration func(index int, p core.IterProgress)
	// Cancel is polled before every cell and at every solver iteration;
	// once it reports true no cell starts and the run returns
	// core.ErrCancelled.
	Cancel func() bool
	// Observe sees every solved cell: a batch's cells in index order, one
	// at a time, never past a failed one; batches, and a batch's farm
	// shards, interleave. It must not mutate s or retain it past the call.
	Observe func(index int, s *Solved)
}

// errNotStarted stops a batch at a cell that did not start; what stopped
// it is recorded at its own index.
var errNotStarted = errors.New("bench: cell not started")

// planRun is one local run of a plan.
type planRun struct {
	inst  *Instance
	s     Schedule
	slots chan struct{} // one per chain or independent cell solving
	// landed[i] is closed once cell i is solved and observed, or once its
	// batch stopped without it; only cells a batch waits on have one. The
	// map is read-only once the run starts.
	landed map[int]chan struct{}
	solved []*Solved

	mu     sync.Mutex
	errs   []error
	failed int // lowest failed index, n while none has
}

// RunPlan is the local Runner, on replicas of the instance: a chain
// solves in order on one replica, an independent batch fans its cells
// out, and a waiting batch starts the moment its seed cell is solved and
// observed. Once a cell fails no cell above it starts, and the run
// returns the lowest-index error, so the outcome is the same at every
// width. A returned chain cell whose dual seeded only its successor
// carries none, so a long chain does not hold every dual to the end.
func (inst *Instance) RunPlan(plan Plan, s Schedule) ([]*Solved, error) {
	n, err := plan.Size()
	if err != nil {
		return nil, err
	}
	slots := s.Concurrent
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	r := &planRun{
		inst:   inst,
		s:      s,
		slots:  make(chan struct{}, slots),
		landed: map[int]chan struct{}{},
		solved: make([]*Solved, n),
		errs:   make([]error, n),
		failed: n,
	}
	for _, b := range plan {
		if b.After != nil && r.landed[*b.After] == nil {
			r.landed[*b.After] = make(chan struct{})
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(plan))
	for i := range plan {
		go func() {
			defer wg.Done()
			r.batch(&plan[i])
		}()
	}
	wg.Wait()
	for _, err := range r.errs {
		if err != nil {
			return nil, err
		}
	}
	return r.solved, nil
}

// batch runs one batch to its end, then closes the landed channel of
// every cell of it that did not land, so no batch waits on it forever.
// A chain holds one slot throughout and solves its cells in order on one
// replica, each from its predecessor; an independent batch takes a slot
// and a fresh replica per cell. Ordered's own error is the lowest of this
// batch's, which r.errs already holds by index.
func (r *planRun) batch(b *Batch) {
	defer func() {
		for _, c := range b.Cells {
			if ch := r.landed[c.Index]; ch != nil && r.solved[c.Index] == nil {
				close(ch)
			}
		}
	}()
	seed, dual := b.Seed, b.Dual
	if b.After != nil {
		if <-r.landed[*b.After]; r.solved[*b.After] == nil {
			return // the seed cell failed or never started; its error is recorded
		}
		seed, dual = r.solved[*b.After].Result.X, r.solved[*b.After].Dual
	}
	width, out := cap(r.slots), make([]*Solved, len(b.Cells))
	var chain *rc.Evaluator
	if b.Chain {
		r.slots <- struct{}{}
		defer func() { <-r.slots }()
		var err error
		if chain, err = r.inst.Replica(); err != nil {
			r.fail(b.Cells[0].Index, err)
			return
		}
		width = 1
	}
	fanout.Ordered(len(b.Cells), width, func(k int) error {
		if chain == nil {
			r.slots <- struct{}{}
			defer func() { <-r.slots }()
		} else if k > 0 {
			seed, dual = out[k-1].Result.X, out[k-1].Dual
			if r.landed[b.Cells[k-1].Index] == nil {
				out[k-1].Dual = nil // it seeded only this cell, so the run keeps no copy
			}
		}
		if out[k] = r.solve(b, b.Cells[k], chain, seed, dual); out[k] == nil {
			return errNotStarted
		}
		return nil
	}, func(k int) { r.land(b.Cells[k].Index, out[k]) })
}

// solve runs one cell through SolveCell, on ev or, when ev is nil, on a
// fresh replica at the cell's technology. It returns nil, with the reason
// recorded, when the cell fails or must not start: a lower cell failed,
// or Cancel fired.
func (r *planRun) solve(b *Batch, c Cell, ev *rc.Evaluator, seed []float64, dual *core.DualState) *Solved {
	if r.s.Cancel != nil && r.s.Cancel() {
		r.fail(c.Index, core.ErrCancelled)
		return nil
	}
	r.mu.Lock()
	stopped := c.Index > r.failed
	r.mu.Unlock()
	if stopped {
		return nil
	}
	var err error
	if ev == nil {
		p := rc.Nominal()
		if c.Perturb != nil {
			p = *c.Perturb
		}
		ev, err = r.inst.PerturbedReplica(p)
	}
	var s *Solved
	if err == nil {
		opt := CellOptions{
			MaxIterations: b.MaxIterations,
			Epsilon:       b.Epsilon,
			S1:            b.S1,
			ReturnDual:    b.Duals,
			Cancel:        r.s.Cancel,
		}
		if r.s.OnIteration != nil {
			opt.OnIteration = func(p core.IterProgress) { r.s.OnIteration(c.Index, p) }
		}
		s, err = SolveCell(ev, c.Bounds, seed, dual, opt)
	}
	if err != nil {
		r.fail(c.Index, err)
		return nil
	}
	return s
}

// fail records cell i's error.
func (r *planRun) fail(i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs[i] = err
	r.failed = min(r.failed, i)
}

// land observes a solved cell and releases the batches waiting on it.
func (r *planRun) land(i int, s *Solved) {
	if r.s.Observe != nil {
		r.s.Observe(i, s)
	}
	r.solved[i] = s
	if ch := r.landed[i]; ch != nil {
		close(ch)
	}
}

// Lockstep multi-solve batching.
//
// A sweep, a Table-1 run, or a farm lease solves many near-identical
// instances of one circuit. Solo, each solve pays every evaluator pass —
// and on a parallel schedule every per-level barrier — K times over. A
// Lockstep runs K solvers against one rc.Batch instead: each solver's LRS
// submits its Recompute/UpstreamResistance as an operation to a rendezvous
// gate, and once every active solver has one pending the whole round
// executes as single batched passes over the shared topology. Converged
// solvers retire with Leave and the survivors keep lockstepping.
//
// The determinism contract is per replica and absolute: a lockstep solve
// is bit-identical to the same solve run solo. The batch passes are
// bit-identical to solo passes per replica (see rc.Batch), replica stripes
// are disjoint so round composition cannot couple solves, and the lockstep
// solver pins the already-pinned-equal execution mode knobs (Workers = 1,
// Incremental = false) whose every setting produces the same bits.
package core

import (
	"fmt"
	"sync"

	"repro/internal/circuit"
	"repro/internal/coupling"
	"repro/internal/rc"
)

// lsOp is one pending gate operation: a replica's full Recompute,
// optionally fused with the UpstreamResistance pass that follows it in
// every LRS sweep. Fusing the two into one operation halves the number
// of rendezvous per sweep; the round still runs the recompute family
// before the upstream family, so the per-replica pass order is exactly
// the solo order.
type lsOp struct {
	rep      int
	upstream bool
	lambda   []float64
	dst      []float64
}

// Lockstep is the rendezvous gate K lockstep solvers advance through.
// Create with NewLockstep, attach solvers with NewLockstepSolver, and
// have every participant call Leave exactly once when its solve is done
// (converged, errored, or cancelled) so the survivors' rounds keep firing.
type Lockstep struct {
	b    *rc.Batch
	pool *pool

	mu     sync.Mutex
	cond   *sync.Cond
	active int
	pend   []lsOp
	gen    uint64
	rounds int64

	// Round scratch, reused across rounds (only touched under mu).
	reps    []int
	lambdas [][]float64
	dsts    [][]float64
}

// NewLockstep builds a K-replica lockstep gate over the circuit. workers
// is the parallel width of the shared batched passes (0 or 1 runs them
// serially; results are bit-identical at every width). All K replicas
// start active: pair each with a solver via NewLockstepSolver, run the
// solves on their own goroutines, and Leave each when done.
func NewLockstep(g *circuit.Graph, cs *coupling.Set, k, workers int) (*Lockstep, error) {
	b, err := rc.NewBatch(g, cs, k)
	if err != nil {
		return nil, err
	}
	l := &Lockstep{b: b, active: b.Len()}
	l.cond = sync.NewCond(&l.mu)
	if workers > 1 {
		l.pool = newPool(workers)
		b.SetRunner(l.pool.rcRunner())
	}
	return l, nil
}

// Len returns the replica count K.
func (l *Lockstep) Len() int { return l.b.Len() }

// Ev returns replica rep's evaluator (see rc.Batch.Ev).
func (l *Lockstep) Ev(rep int) *rc.Evaluator { return l.b.Ev(rep) }

// Rounds returns how many batched rounds have executed so far.
func (l *Lockstep) Rounds() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rounds
}

// Close releases the gate's worker goroutines (a no-op when the batched
// passes run serially).
func (l *Lockstep) Close() {
	if l.pool != nil {
		l.pool.close()
	}
}

// Leave retires one participant. If every remaining active participant
// already has an operation pending, their round fires now — a converged
// solve can never stall the survivors.
func (l *Lockstep) Leave() {
	l.mu.Lock()
	l.active--
	if l.active > 0 && len(l.pend) >= l.active {
		l.runRound()
	}
	l.mu.Unlock()
}

// rendezvous enqueues op and blocks until the round containing it has
// executed. The last active participant to arrive runs the round inline.
func (l *Lockstep) rendezvous(op lsOp) {
	l.mu.Lock()
	l.pend = append(l.pend, op)
	if len(l.pend) >= l.active {
		l.runRound()
		l.mu.Unlock()
		return
	}
	gen := l.gen
	for l.gen == gen {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// runRound executes every pending operation as batched passes — the
// plain recompute family first, then the fused sweep family through
// Batch.SweepAll — in arrival order within each family, and wakes the
// waiting participants. Called with mu held. Grouping is a scheduling
// decision only: the batch passes are bit-identical per replica
// regardless of which replicas share a round.
func (l *Lockstep) runRound() {
	l.reps = l.reps[:0]
	for _, op := range l.pend {
		if !op.upstream {
			l.reps = append(l.reps, op.rep)
		}
	}
	if len(l.reps) > 0 {
		l.b.RecomputeAll(l.reps)
	}
	l.reps = l.reps[:0]
	l.lambdas = l.lambdas[:0]
	l.dsts = l.dsts[:0]
	for _, op := range l.pend {
		if op.upstream {
			l.reps = append(l.reps, op.rep)
			l.lambdas = append(l.lambdas, op.lambda)
			l.dsts = append(l.dsts, op.dst)
		}
	}
	if len(l.reps) > 0 {
		l.b.SweepAll(l.reps, l.lambdas, l.dsts)
	}
	l.pend = l.pend[:0]
	l.rounds++
	l.gen++
	l.cond.Broadcast()
}

// recompute submits replica rep's full Recompute and waits for its round.
func (l *Lockstep) recompute(rep int) {
	l.rendezvous(lsOp{rep: rep})
}

// sweepPasses submits replica rep's per-sweep pass pair — a full
// Recompute fused with the UpstreamResistance that always follows it —
// as one operation, costing one rendezvous instead of two.
func (l *Lockstep) sweepPasses(rep int, lambda, dst []float64) {
	l.rendezvous(lsOp{rep: rep, upstream: true, lambda: lambda, dst: dst})
}

// NewLockstepSolver builds a Solver over the gate's replica rep whose LRS
// evaluator passes run through the lockstep rounds. The execution-mode
// knobs are pinned to the lockstep schedule — Workers to 1 (the replica's
// own solo calls stay serial; the shared batched passes carry the
// parallelism) and Incremental to false (every lockstep sweep is a full
// pass) — both of which are bit-identical to every other setting by the
// PR-1/PR-3 contracts, so the solve's result equals its solo-solver result
// under any options.
func NewLockstepSolver(l *Lockstep, rep int, opt Options) (*Solver, error) {
	if rep < 0 || rep >= l.Len() {
		return nil, fmt.Errorf("core: lockstep replica %d out of range [0,%d)", rep, l.Len())
	}
	opt.Workers = 1
	opt.Incremental = false
	s, err := NewSolver(l.Ev(rep), opt)
	if err != nil {
		return nil, err
	}
	s.ls, s.lsRep = l, rep
	return s, nil
}

// lrsLockstep is LRS on the lockstep schedule: the lrsFull loop with the
// evaluator pass pair of each sweep routed through the gate's batched
// rounds as one fused operation. Identical structure, identical
// arithmetic — the sweep counts, sizes, and break decisions match lrsFull
// bit for bit.
func (s *Solver) lrsLockstep() int {
	ev := s.ev
	g := ev.Graph()
	if !s.opt.WarmStart {
		// S1: start from the lower bounds.
		for i := 1; i < g.NumNodes()-1; i++ {
			if c := g.Comp(i); c.Kind.Sizable() {
				ev.X[i] = c.Lo
			}
		}
	}
	beta, gamma := s.lrsPrelude()
	sweeps := 0
	for sweeps < s.opt.LRSMaxSweeps {
		sweeps++
		// S2: downstream capacitances; S3: upstream resistances — one
		// fused gate operation, one rendezvous.
		s.ls.sweepPasses(s.lsRep, s.lambda, s.rup)
		// S4/S5: resize every component, repeat until no improvement.
		if s.resizeFull(beta, gamma) < s.opt.LRSTol {
			break
		}
	}
	s.ls.recompute(s.lsRep)
	return sweeps
}

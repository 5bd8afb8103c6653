package farm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/farm/api"
)

// Options configures a Coordinator. The zero value serves with the
// defaults below.
type Options struct {
	// HeartbeatInterval is how often workers must check in (and how often
	// the reaper scans); default 2s. LeaseTTL is how long a worker may stay
	// silent before it is reaped and its leased jobs re-queued; default 3×
	// the heartbeat interval. The smoke tests shrink both to milliseconds.
	HeartbeatInterval time.Duration
	LeaseTTL          time.Duration
	// Now is the clock, injectable so the reaping tests drive time
	// explicitly; default time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives coordinator lifecycle lines (worker
	// joins, reaps, re-queues) — wired to the ogwsd log in -coordinator
	// mode, silent otherwise.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 3 * o.HeartbeatInterval
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// maxLeaseWait caps how long a lease request may long-poll for work.
// Requests asking for more are clamped, not rejected.
const maxLeaseWait = 30 * time.Second

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// jobState tracks one job through its lifetime. A reaped job goes back to
// jobPending (re-queue); a job whose run died is dropped instead.
type jobState int

const (
	jobPending jobState = iota
	jobLeased
	jobDone
)

// job is one leased unit of work. The wire message (msg) is immutable
// after creation — seeds and duals are shipped by reference and never
// mutated — so re-leasing after a reap re-sends the identical message,
// which is what makes the re-run reproduce the dead worker's cells
// bitwise.
type job struct {
	run   *run
	seq   int // position in the run's deterministic job order
	msg   api.Job
	state jobState
	// worker/lease identify the current holder while state == jobLeased.
	worker string
	lease  string
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id       string
	name     string
	lastBeat time.Time
	dead     bool
	// Lifetime counters, surfaced per worker in /stats.
	jobsCompleted int64
	cellsSolved   int64
	solvesDone    int64
	samplesSolved int64
}

// Coordinator owns the farm: registered workers, the pending-job queue,
// outstanding leases, and the runs being assembled. Everything mutable
// sits behind mu; long-polling lease requests park on wake, which is
// closed-and-replaced whenever work arrives or leases change hands.
type Coordinator struct {
	opt Options

	// mu guards every map and every job/run/worker field below, and is
	// never held across an OnCell callback, an HTTP write, or a solve.
	mu      sync.Mutex
	wake    chan struct{}
	workers map[string]*workerState
	queue   []*job          // pending jobs, sorted by (run.id, seq)
	leases  map[string]*job // by lease token
	runs    map[int64]*run

	nextWorker int64
	nextJob    int64
	nextLease  int64
	nextRun    int64

	// Lifetime counters.
	jobsCompleted int64
	jobsRequeued  int64
	workersReaped int64
	runsCompleted int64
	runsFailed    int64
	reconnects    int64
}

// New builds a Coordinator with the given options.
func New(opt Options) *Coordinator {
	opt.fill()
	return &Coordinator{
		opt:     opt,
		wake:    make(chan struct{}),
		workers: map[string]*workerState{},
		leases:  map[string]*job{},
		runs:    map[int64]*run{},
	}
}

// Start runs the heartbeat reaper until ctx is cancelled. The scan period
// is the heartbeat interval: a worker is reaped at most one interval after
// its lease TTL expires. Tests that inject a clock call reap directly
// instead.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(c.opt.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.reap()
			}
		}
	}()
}

// register admits a worker, rejecting protocol-version and numerics skew
// (a worker from a different build could compute different bits, which
// would break the determinism contract silently).
func (c *Coordinator) register(req api.RegisterRequest) (api.RegisterResponse, error) {
	if req.Version != api.Version {
		return api.RegisterResponse{}, fmt.Errorf("farm: protocol version mismatch: worker speaks v%d, coordinator v%d", req.Version, api.Version)
	}
	if req.Numerics != core.Numerics {
		return api.RegisterResponse{}, fmt.Errorf("farm: numerics mismatch: worker solves with numerics %d, coordinator %d", req.Numerics, core.Numerics)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("w%d", c.nextWorker),
		name:     req.Name,
		lastBeat: c.opt.Now(),
	}
	if w.name == "" {
		w.name = w.id
	}
	// A register under a name already on the books is a worker coming back
	// after a crash, reap, or coordinator outage — count it so /stats makes
	// retry storms visible.
	if req.Name != "" {
		for _, prev := range c.workers {
			if prev.name == req.Name {
				c.reconnects++
				break
			}
		}
	}
	c.workers[w.id] = w
	c.logf("farm: worker %s (%s) registered", w.id, w.name)
	return api.RegisterResponse{
		WorkerID:        w.id,
		HeartbeatMillis: c.opt.HeartbeatInterval.Milliseconds(),
		LeaseTTLMillis:  c.opt.LeaseTTL.Milliseconds(),
	}, nil
}

// errUnknownWorker is returned for heartbeats and lease requests from
// workers the coordinator does not know (never registered, or reaped) —
// the worker's cue to exit rather than re-register, since its in-flight
// work has already been re-queued.
var errUnknownWorker = errors.New("farm: unknown or reaped worker")

// beat refreshes a worker's liveness and, with it, every lease it holds.
func (c *Coordinator) beat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil || w.dead {
		return errUnknownWorker
	}
	w.lastBeat = c.opt.Now()
	return nil
}

// reap scans for workers whose lease TTL has lapsed, marks them dead, and
// re-queues their leased jobs in deterministic (run, seq) order — so no
// matter which worker died or when, the surviving workers see the exact
// job sequence a fresh dispatch would have produced. Every scan wakes the
// parked lease long-polls: a reaped worker's poll learns it is dead, and
// the survivors re-check their injected-clock deadlines (enqueueLocked
// only wakes when the scan re-queued something).
func (c *Coordinator) reap() {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.wakeLocked()
	for _, w := range c.workers {
		if w.dead || now.Sub(w.lastBeat) <= c.opt.LeaseTTL {
			continue
		}
		w.dead = true
		c.workersReaped++
		c.logf("farm: worker %s (%s) missed heartbeats for %s, reaping", w.id, w.name, now.Sub(w.lastBeat))
		for token, j := range c.leases {
			if j.worker != w.id {
				continue
			}
			delete(c.leases, token)
			j.worker, j.lease = "", ""
			if j.run.finished() {
				j.state = jobDone
				continue
			}
			j.state = jobPending
			c.enqueueLocked(j)
			c.jobsRequeued++
			c.logf("farm: re-queued job %d (run %d seq %d) from reaped worker %s", j.msg.ID, j.run.id, j.seq, w.id)
		}
	}
}

// enqueueLocked inserts a pending job at its deterministic queue position
// (sorted by run id, then the run's own job sequence) and wakes every
// long-polling lease request.
func (c *Coordinator) enqueueLocked(j *job) {
	i := sort.Search(len(c.queue), func(i int) bool {
		q := c.queue[i]
		if q.run.id != j.run.id {
			return q.run.id > j.run.id
		}
		return q.seq > j.seq
	})
	c.queue = append(c.queue, nil)
	copy(c.queue[i+1:], c.queue[i:])
	c.queue[i] = j
	c.wakeLocked()
}

func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// popLocked removes and returns the first queued job whose run is still
// alive, dropping dead runs' jobs as it goes.
func (c *Coordinator) popLocked() *job {
	for len(c.queue) > 0 {
		j := c.queue[0]
		c.queue = c.queue[1:]
		if j.run.finished() {
			j.state = jobDone
			continue
		}
		return j
	}
	return nil
}

// leaseJob grants at most one job to the worker, long-polling up to wait
// (clamped to maxLeaseWait) when the queue is empty. A done ctx ends the
// poll as an empty lease, so a request whose client hung up never stays
// parked on a clock that may not move.
func (c *Coordinator) leaseJob(ctx context.Context, workerID string, wait time.Duration) (*api.Job, string, error) {
	wait = min(max(wait, 0), maxLeaseWait)
	// The deadline lives on the injected clock, like every other timeout
	// the coordinator owns (heartbeats, lease TTLs) — so fake-clock tests
	// can drive long-poll expiry deterministically. The real timer below
	// only bounds how long the goroutine parks; expiry itself is always
	// decided by opt.Now against the deadline.
	deadline := c.opt.Now().Add(wait)
	for {
		c.mu.Lock()
		w := c.workers[workerID]
		if w == nil || w.dead {
			c.mu.Unlock()
			return nil, "", errUnknownWorker
		}
		if j := c.popLocked(); j != nil {
			c.nextLease++
			token := fmt.Sprintf("L%d", c.nextLease)
			j.state = jobLeased
			j.worker, j.lease = workerID, token
			c.leases[token] = j
			msg := j.msg
			c.mu.Unlock()
			return &msg, token, nil
		}
		wake := c.wake
		c.mu.Unlock()
		remaining := deadline.Sub(c.opt.Now())
		if remaining <= 0 {
			return nil, "", nil
		}
		t := time.NewTimer(remaining)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
			// Re-check against the injected clock rather than returning:
			// under a fake clock the wall timer firing means nothing.
		case <-ctx.Done():
			t.Stop()
			return nil, "", nil
		}
	}
}

// CancelRuns fails every unfinished run with the given reason and returns
// how many it killed. Queued jobs are dropped lazily, in-flight result
// streams get 410, and every run's waiter unblocks with the error — the
// coordinator half of ogwsd's graceful drain.
func (c *Coordinator) CancelRuns(reason string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.wakeLocked()
	n := 0
	for _, r := range c.runs {
		if r.finished() {
			continue
		}
		c.failLocked(r, errors.New(reason))
		n++
	}
	return n
}

// LiveWorkers reports how many registered workers are currently live —
// the service's dispatch predicate: with zero live workers solves and
// sweeps run locally, exactly as without a coordinator.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

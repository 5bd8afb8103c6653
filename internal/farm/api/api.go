// Package api defines the versioned wire protocol between the farm
// coordinator (internal/farm, embedded in ogwsd -coordinator) and its
// worker processes (cmd/ogws-worker). Four endpoints, all JSON over HTTP
// under /farm/v1/:
//
//	POST /farm/v1/register   RegisterRequest  → RegisterResponse
//	POST /farm/v1/heartbeat  HeartbeatRequest → HeartbeatResponse
//	POST /farm/v1/lease      LeaseRequest     → LeaseResponse
//	POST /farm/v1/result     NDJSON ResultLine stream → ResultResponse
//	                         (?worker=…&job=…&lease=… query identifies the lease)
//
// Every numeric payload that feeds a solve — bounds, seed sizes, dual
// multipliers, results — round-trips bitwise through encoding/json
// (shortest round-trippable float64 representation), so a job executed on
// any worker produces the identical bytes the coordinator's own solver
// would have. That property, plus deterministic job content (a lease
// always carries the full seed it must be solved from), is the farm's
// determinism contract: re-running a leased job after a worker death
// reproduces the exact cells the dead worker would have streamed.
//
// Two pieces of execution live beside the messages, because both ends of
// the wire must run them identically: CircuitSpec.Build, the one spec →
// instance mapping, and SolveJob.Run, the one full-solve path.
package api

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/rc"
	"repro/internal/variation"
)

// Version is the protocol version; the coordinator rejects workers that
// register with any other value (no skew tolerated — a worker from a
// different build could compute different bits).
const Version = 1

// CircuitSpec tells a worker how to materialize its own replica of a
// coordinator circuit. Exactly one of Synthetic, Netlist, or Grid is set;
// Key is the coordinator's instance-cache key for the same circuit
// (bench.SpecKey / bench.NetlistKey / bench.GridKey), which the worker
// uses as its local cache key — materialization is deterministic in the
// spec, so equal keys mean bit-identical instances on every node.
type CircuitSpec struct {
	Key string `json:"key"`
	// Synthetic names a built-in ISCAS85-class spec (bench.SpecByName).
	Synthetic string `json:"synthetic,omitempty"`
	// Netlist is raw .bench netlist text; Seed its geometry seed.
	Netlist string `json:"netlist,omitempty"`
	Name    string `json:"name,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// WireLengthScale is the pipeline option uploads and synthetics carry
	// (0 = default 1).
	WireLengthScale float64 `json:"wire_length_scale,omitempty"`
	// Grid selects a bench.GridInstance mesh.
	Grid *GridSpec `json:"grid,omitempty"`
}

// GridSpec is the shape of a bench.GridInstance mesh.
type GridSpec struct {
	Width   int  `json:"width"`
	Layers  int  `json:"layers"`
	Coupled bool `json:"coupled"`
}

// Validate checks that the spec names exactly one circuit source and
// carries a cache key.
func (s *CircuitSpec) Validate() error {
	n := 0
	if s.Synthetic != "" {
		n++
	}
	if s.Netlist != "" {
		n++
	}
	if s.Grid != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("farm: circuit spec must set exactly one of synthetic, netlist, or grid (got %d)", n)
	}
	if s.Key == "" {
		return errors.New("farm: circuit spec is missing its cache key")
	}
	return nil
}

// Build materializes the spec's circuit: the one spec → instance mapping
// behind service registration, the service's boot reload and every
// worker's replica cache. It is deterministic in the spec, so equal keys
// give bit-identical instances on every node. It returns the circuit's
// label (the synthetic spec's name, a netlist's Name with default
// "upload", or "grid-mesh"), the instance, and for a grid mesh the mesh's
// own calibration bounds. Netlist circuits return nil bounds: callers
// calibrate them with bench.DeriveBounds, which assumes the netlist
// pipeline's fields a mesh skips.
func (s *CircuitSpec) Build() (string, *bench.Instance, *bench.Bounds, error) {
	if err := s.Validate(); err != nil {
		return "", nil, nil, err
	}
	pipe := bench.PipelineOptions{WireLengthScale: s.WireLengthScale}
	switch {
	case s.Synthetic != "":
		spec, ok := bench.SpecByName(s.Synthetic)
		if !ok {
			return s.Synthetic, nil, nil, fmt.Errorf("unknown synthetic circuit %q", s.Synthetic)
		}
		inst, err := bench.BuildInstance(spec, pipe)
		return spec.Name, inst, nil, err
	case s.Netlist != "":
		name := s.Name
		if name == "" {
			name = "upload"
		}
		nl, err := netlist.Parse(name, strings.NewReader(s.Netlist))
		if err != nil {
			return name, nil, nil, err
		}
		inst, err := bench.AssembleNetlist(nl, s.Seed, pipe)
		return name, inst, nil, err
	default:
		inst, b, err := bench.GridInstance(s.Grid.Width, s.Grid.Layers, s.Grid.Coupled)
		if err != nil {
			return "grid-mesh", nil, nil, err
		}
		return "grid-mesh", inst, &b, nil
	}
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Version must equal api.Version; anything else is rejected.
	Version int `json:"version"`
	// Numerics must equal the coordinator's core.Numerics, or the worker
	// is rejected: a worker built on other solver arithmetic would return
	// other bits for the same cell.
	Numerics int `json:"numerics"`
	// Name labels the worker in /stats (default: its assigned id).
	Name string `json:"name,omitempty"`
}

// RegisterResponse assigns the worker its identity and cadence.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// HeartbeatMillis is how often the worker must POST a heartbeat;
	// LeaseTTLMillis is how long the coordinator tolerates silence before
	// reaping the worker and re-queueing its leased jobs.
	HeartbeatMillis int64 `json:"heartbeat_millis"`
	LeaseTTLMillis  int64 `json:"lease_ttl_millis"`
}

// HeartbeatRequest refreshes a worker's liveness (and with it every lease
// it holds).
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// LeaseRequest asks for one job. WaitMillis long-polls: the coordinator
// holds the request open up to that long waiting for work (bounded by its
// own cap) instead of making idle workers busy-poll.
type LeaseRequest struct {
	WorkerID   string `json:"worker_id"`
	WaitMillis int64  `json:"wait_millis,omitempty"`
}

// LeaseResponse grants at most one job. A nil Job means no work was
// available within the wait window; Lease is the token every result for
// this job must present — stale tokens (after a reap re-queued the job)
// are rejected, which is what makes duplicate execution harmless.
type LeaseResponse struct {
	Job   *Job   `json:"job,omitempty"`
	Lease string `json:"lease,omitempty"`
}

// Job is one leased unit of work: a full solve or a batch of sweep cells,
// with the circuit spec the worker needs to materialize its replica.
// Exactly one of Solve / Sweep is set.
type Job struct {
	ID         int64          `json:"id"`
	Circuit    CircuitSpec    `json:"circuit"`
	Solve      *SolveJob      `json:"solve,omitempty"`
	Sweep      *SweepJob      `json:"sweep,omitempty"`
	MonteCarlo *MonteCarloJob `json:"montecarlo,omitempty"`
}

// Kind names the job's work type, for logs and stats.
func (j *Job) Kind() string {
	switch {
	case j.Solve != nil:
		return "solve"
	case j.Sweep != nil:
		return "sweep"
	case j.MonteCarlo != nil:
		return "montecarlo"
	default:
		return "empty"
	}
}

// SolveJob is one full OGWS solve: the exact inputs core.NewSolver +
// RunFromDual take, shipped with the lease. Solver goroutine width is
// deliberately absent — results are bit-identical at every width (pinned
// by core's TestWorkersBitIdentical), so each worker picks its own.
type SolveJob struct {
	Bounds        bench.Bounds    `json:"bounds"`
	MaxIterations int             `json:"max_iterations,omitempty"`
	Epsilon       float64         `json:"epsilon,omitempty"`
	Warm          bool            `json:"warm,omitempty"`
	Seed          []float64       `json:"seed,omitempty"`
	Dual          *core.DualState `json:"dual,omitempty"`
}

// Run solves the job on a fresh replica of inst at the given solver
// width: the one solve path a farm worker and the service's local
// fallback share, so a job's bytes cannot depend on where it ran.
// onIteration and cancel are the core.Options hooks; either may be nil.
func (j *SolveJob) Run(inst *bench.Instance, workers int, onIteration func(core.IterProgress), cancel func() bool) (*SolveResult, error) {
	opt := core.DefaultOptions(j.Bounds.A0, j.Bounds.NoiseBound, j.Bounds.PowerBound)
	opt.MaxIterations, opt.Epsilon = j.MaxIterations, j.Epsilon
	opt.Workers = workers
	opt.WarmStart = j.Warm
	opt.OnIteration = onIteration
	opt.Cancel = cancel
	replica, err := inst.Replica()
	if err != nil {
		return nil, err
	}
	sol, err := core.NewSolver(replica, opt)
	if err != nil {
		return nil, err
	}
	defer sol.Close()
	start := time.Now()
	res, err := sol.RunFromDual(j.Seed, j.Dual)
	if err != nil {
		return nil, err
	}
	return &SolveResult{
		Result:          res,
		Dual:            sol.DualState(),
		Workers:         sol.Workers(),
		SolveSec:        time.Since(start).Seconds(),
		Eval:            replica.Stats(),
		HysteresisTrips: sol.HysteresisTrips(),
		RevertedSweeps:  sol.RevertedSweeps(),
	}, nil
}

// SweepJob is a batch of sweep cells. With Chain set the cells form a
// seeding chain solved in order on one evaluator (each cell seeded from
// its predecessor's sizes and dual — a warm wavefront spine or row);
// otherwise every cell solves independently from Seed on a fresh
// evaluator (cold sweeps). Either way the batch's outcome is a pure
// function of this message, which is why re-queued batches reassemble
// bit-identically no matter which worker re-runs them.
type SweepJob struct {
	Chain bool `json:"chain,omitempty"`
	// ReturnDual asks the worker to attach each cell's final dual state to
	// its result line — the coordinator needs the spine's duals to seed
	// the row batches.
	ReturnDual bool            `json:"return_dual,omitempty"`
	Seed       []float64       `json:"seed"`
	Dual       *core.DualState `json:"dual,omitempty"`
	Cells      []CellSpec      `json:"cells"`
	// Solver knobs, mirroring sweep.Options (width omitted, as in SolveJob).
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	PrimalOnly    bool    `json:"primal_only,omitempty"`
	ColdLRS       bool    `json:"cold_lrs,omitempty"`
}

// MonteCarloJob is one contiguous shard [Lo, Hi) of a Monte-Carlo run's
// global sample set. The lease ships the run's seed and sigmas — never
// drawn perturbations — and the worker re-derives its shard as
// variation.Perturbs(Seed, Hi, Sigmas)[Lo:Hi]: sample i's scalars are a
// pure function of (Seed, i, Sigmas) by the sampler's stream discipline,
// so any sharding of the index range draws the identical values the full
// local run draws, and each sample's solve (variation.SolveSamples) is
// equally pure in its own perturbation. Reassembling shards by global
// index therefore reproduces the single-process run byte for byte, no
// matter how many workers shared the samples or how many died mid-shard.
type MonteCarloJob struct {
	// Bounds are the run's nominal base bounds; each sample is solved
	// against its perturbedBounds carry, computed worker-side from the
	// same arithmetic the local path uses.
	Bounds bench.Bounds     `json:"bounds"`
	Seed   uint64           `json:"seed"`
	Sigmas variation.Sigmas `json:"sigmas"`
	// Lo/Hi bound the shard's global sample indices: samples Lo ≤ i < Hi.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Solver knobs (width omitted, as in SolveJob — results are
	// bit-identical at every width).
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
}

// CellSpec is one grid point to solve: its row-major position and the
// fully resolved bounds the coordinator planned for it.
type CellSpec struct {
	Row        int          `json:"row"`
	Col        int          `json:"col"`
	DelayScale float64      `json:"delay_scale"`
	NoiseScale float64      `json:"noise_scale"`
	Bounds     bench.Bounds `json:"bounds"`
}

// ResultLine is one NDJSON line of a result stream: a solved sweep cell,
// a completed solve, a terminal error (the job failed deterministically —
// re-queueing would fail identically), or the final done marker. A stream
// that ends without Done or Error (worker death mid-job) leaves the job
// leased until the reaper re-queues it; cells already received stay
// recorded, because the re-run reproduces them bitwise.
type ResultLine struct {
	Cell   *CellResult     `json:"cell,omitempty"`
	Solve  *SolveResult    `json:"solve,omitempty"`
	Sample *MCSampleResult `json:"sample,omitempty"`
	Done   bool            `json:"done,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// MCSampleResult is one solved Monte-Carlo sample, addressed by its
// global index in the run's sample set (not its position within the
// shard), so the coordinator reassembles shards without knowing how the
// range was cut.
type MCSampleResult struct {
	Index   int          `json:"index"`
	Perturb rc.Perturb   `json:"perturb"`
	Result  *core.Result `json:"result"`
}

// CellResult is one solved sweep cell.
type CellResult struct {
	Row      int             `json:"row"`
	Col      int             `json:"col"`
	Result   *core.Result    `json:"result"`
	Dual     *core.DualState `json:"dual,omitempty"` // only when ReturnDual
	SolveSec float64         `json:"solve_sec"`
}

// SolveResult is a completed SolveJob: the full solver outcome plus the
// dual snapshot (for save_as warm-start chains) and the work counters the
// serving host folds into its /stats.
type SolveResult struct {
	Result          *core.Result    `json:"result"`
	Dual            *core.DualState `json:"dual,omitempty"`
	Workers         int             `json:"workers"`
	SolveSec        float64         `json:"solve_sec"`
	Eval            rc.EvalStats    `json:"eval"`
	HysteresisTrips int64           `json:"hysteresis_trips"`
	RevertedSweeps  int64           `json:"reverted_sweeps"`
}

// ResultResponse acknowledges a consumed result stream.
type ResultResponse struct {
	OK bool `json:"ok"`
}

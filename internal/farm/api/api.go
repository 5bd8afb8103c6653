// Package api defines the versioned wire protocol between the farm
// coordinator (internal/farm, embedded in ogwsd -coordinator) and its
// worker processes (cmd/ogws-worker). Four endpoints, all JSON over HTTP
// under /farm/v1/:
//
//	POST /farm/v1/register   RegisterRequest  → RegisterResponse
//	POST /farm/v1/heartbeat  HeartbeatRequest → HeartbeatResponse
//	POST /farm/v1/lease      LeaseRequest     → LeaseResponse
//	POST /farm/v1/result     NDJSON ResultLine stream → ResultResponse
//	                         (?job=…&lease=… query identifies the lease)
//
// Every numeric payload that feeds a solve — bounds, perturbations, seed
// sizes, dual multipliers, results — round-trips bitwise through
// encoding/json (shortest round-trippable float64 representation;
// TestJobRoundTrip pins it), so a job executed on any worker produces the
// identical bytes the coordinator's own solver would have. That property,
// plus deterministic job content (a lease always carries the full seed it
// must be solved from), is the farm's determinism contract: re-running a
// leased job after a worker death reproduces the exact cells the dead
// worker would have streamed.
//
// The wire has one unit of work, a Job: a batch of cells, each one solve
// through the shared cell kernel (bench.SolveCell), and one result-line
// kind, the solved cell. CircuitSpec.Build lives beside the messages
// because both ends of the wire must run it identically: it is the one
// spec → instance mapping.
package api

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// Version is the protocol version; the coordinator rejects workers that
// register with any other value (no skew tolerated — a worker from a
// different build could compute different bits). Version 2 is the
// cell-batch protocol: one job type, Job, and one result-line kind, the
// solved cell.
const Version = 2

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

// Job is one leased batch of a plan (bench.Batch) on one circuit, with
// the spec the worker materializes its replica from: a chain, or a shard
// of an independent batch. A batch that waited on a recorded cell ships
// that cell's sizes and dual as its Seed and Dual, so its outcome is a
// pure function of this message and a re-queued batch re-solves
// bit-identically on any worker. It names no width: every solve runs
// serially, and each worker fans an independent batch out over its own
// cores.
type Job struct {
	ID      int64       `json:"id"`
	Circuit CircuitSpec `json:"circuit"`
	bench.Batch
}

// ResultLine is one NDJSON line of a result stream: a solved cell, a
// terminal error (the job failed deterministically — re-queueing would
// fail identically), or the final done marker. A stream that ends without
// Done or Error (worker death mid-job) leaves the job leased until the
// reaper re-queues it; cells already received stay recorded, because the
// re-run reproduces them bitwise.
type ResultLine struct {
	Cell  *CellResult `json:"cell,omitempty"`
	Done  bool        `json:"done,omitempty"`
	Error string      `json:"error,omitempty"`
}

// CellResult is one solved cell, addressed by its index in the run, so
// the coordinator reassembles batches without knowing how the run was
// cut. It carries the kernel's whole outcome: the result, the dual (only
// when the batch asked for Duals), the solve time and the work counters
// the serving host folds into its /stats.
type CellResult struct {
	Index int `json:"index"`
	bench.Solved
}

// ResultResponse acknowledges a consumed result stream.
type ResultResponse struct {
	OK bool `json:"ok"`
}

// Package farm turns the single-process sizing service into a
// coordinator/worker farm: the coordinator (embedded in ogwsd
// -coordinator) runs the plans of solves, sweeps, corners and Monte-Carlo
// runs (bench.Plan) by leasing their batches of cells, thin worker
// processes (cmd/ogws-worker) register over the versioned HTTP job API in
// internal/farm/api, lease batches,
// materialize their own bit-identical replicas of each circuit (keyed by
// the same content-hash keys the service cache uses), and stream cell
// results back as NDJSON. A heartbeat keeper reaps silent workers and
// re-queues their leased jobs in deterministic order.
//
// # One cell, one job
//
// Every workload is one computation repeated: a cell is one OGWS solve of
// one replica at resolved bounds from a given start. The coordinator
// plans nothing: each workload's package emits its plan of cells and
// hands it to a bench.Runner, the local one or this coordinator's
// (Coordinator.Runner, over dispatch, its one run entry), which leases a
// chain as one job and cuts an independent batch into one shard per live
// worker. A batch may wait on the recorded cell whose sizes and dual seed
// it; its jobs are queued once that cell lands, with the seed shipped in
// their leases. Workers run each batch with the local runner,
// bench.Instance.RunPlan, exactly as the in-process engines do. The
// coordinator has one record path and the wire one result-line kind, the
// solved cell.
//
// # Determinism contract
//
// A distributed run must reassemble, byte for byte, into what the
// single-process engines (internal/sweep, internal/variation, the
// service's local solve) would have produced — the same contract every
// layer below holds (incremental vs full, fanned out vs solo, streamed vs
// buffered). The farm earns it structurally rather than by locking:
//
//   - Every lease is self-contained: a batch carries the exact bounds,
//     perturbations, seed sizes and dual multipliers its cells must be
//     solved from, so its outcome is a pure function of the job message —
//     independent of which worker runs it, when, or how many times.
//   - The coordinator runs the very plan the local runner would: the
//     workload's planner emitted it, and cutting an independent batch
//     into shards changes no cell, because each is a pure function of
//     its own inputs.
//   - Workers execute batches with the local runner, cells through
//     bench.SolveCell — the same kernel, the same core.Options — on
//     evaluators materialized from the same deterministic pipeline, so
//     equal inputs give equal bits on every node of one architecture.
//   - Results are recorded first-wins by cell index, and only for a cell
//     of the job that sent it. Re-running a re-queued job reproduces the
//     dead worker's cells bitwise, so duplicate lines are simply dropped.
//     Every solve runs serially, and how many cells a worker solves at
//     once is its own choice, because it changes no bit.
//
// Worker death is therefore invisible in the output: kill a worker
// mid-grid and the reaper re-queues its jobs, another worker re-runs
// them, and the assembled grid still diffs clean against the committed
// golden fixture (internal/sweep/testdata/golden_grid.json) — enforced by
// TestFarmDistributedSweepGolden in-process and by the CI farm-smoke job
// over real TCP with a worker killed mid-sweep; TestFarmMonteCarloMatchesLocal
// holds the same line for a Monte-Carlo run.
package farm

package service

import (
	"sync"

	"repro/internal/farm"
	"repro/internal/rc"
)

// serverStats accumulates work counters across every request the server
// has handled: solve and sweep counts and wall-clock, the evaluator work
// counters summed over all request replicas, and the solver's cutover
// hysteresis accounting. Everything is additive, so concurrent requests
// just fold in under the mutex when they finish.
type serverStats struct {
	mu             sync.Mutex
	solves         int64
	solveSec       float64
	sweeps         int64
	sweepCells     int64
	sweepLRSSweeps int64
	sweepSec       float64
	eval           rc.EvalStats
	hystTrips      int64
	revertedSweeps int64
	// Durable-store accounting (zero when the server runs storeless).
	dedupHits        int64
	storeErrors      int64
	reloadedCircuits int64
	reloadedResults  int64
	foreignResults   int64
	// Resilience accounting: requests shed by the overload gate and
	// solves/sweeps cancelled mid-flight by a disconnected client.
	overloadSheds   int64
	solvesCancelled int64
	// Process-variation accounting: Monte-Carlo runs (and their sample
	// solves) plus corner sweeps (and their corner cells).
	montecarlos int64
	mcSamples   int64
	mcSec       float64
	cornerRuns  int64
	cornerCells int64
	cornerSec   float64
}

func (st *serverStats) addSolve(sec float64, ev rc.EvalStats, trips, reverted int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.solves++
	st.solveSec += sec
	st.eval = st.eval.Add(ev)
	st.hystTrips += trips
	st.revertedSweeps += reverted
}

func (st *serverStats) addDedupHit() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dedupHits++
}

func (st *serverStats) addStoreError() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.storeErrors++
}

func (st *serverStats) addReloadedCircuit() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reloadedCircuits++
}

func (st *serverStats) addReloadedResult() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reloadedResults++
}

func (st *serverStats) addForeignResult() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.foreignResults++
}

func (st *serverStats) addOverloadShed() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.overloadSheds++
}

func (st *serverStats) addSolveCancelled() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.solvesCancelled++
}

func (st *serverStats) addSweep(sec float64, cells, lrsSweeps int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweeps++
	st.sweepCells += int64(cells)
	st.sweepLRSSweeps += int64(lrsSweeps)
	st.sweepSec += sec
}

func (st *serverStats) addMonteCarlo(sec float64, samples int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.montecarlos++
	st.mcSamples += int64(samples)
	st.mcSec += sec
}

func (st *serverStats) addCorners(sec float64, cells int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cornerRuns++
	st.cornerCells += int64(cells)
	st.cornerSec += sec
}

// Stats is the GET /stats payload: cache effectiveness, request volume,
// throughput, and the solver/evaluator work counters every lower layer
// already keeps (rc.EvalStats, hysteresis trips).
type Stats struct {
	// Instances is the current cache population; the hit/miss/eviction
	// counters cover the server's whole lifetime.
	Instances  int   `json:"instances"`
	CacheHits  int64 `json:"cache_hits"`
	CacheMiss  int64 `json:"cache_misses"`
	Evictions  int64 `json:"evictions"`
	Solves     int64 `json:"solves"`
	Sweeps     int64 `json:"sweeps"`
	SweepCells int64 `json:"sweep_cells"`
	// SolveSec / SweepSec are summed request wall-clocks (s);
	// SweepCellsPerSec is the aggregate sweep throughput the PR-4
	// benchmarks report as cells/s, and SweepLRSSweeps the total inner
	// LRS sweeps the grids executed (their work measure).
	SolveSec         float64 `json:"solve_sec"`
	SweepSec         float64 `json:"sweep_sec"`
	SweepCellsPerSec float64 `json:"sweep_cells_per_sec"`
	SweepLRSSweeps   int64   `json:"sweep_lrs_sweeps"`
	// Eval sums the rc.EvalStats work counters over the /solve request
	// evaluators (sweep cells solve on internal/sweep's own replicas,
	// which are accounted via SweepLRSSweeps instead); NodeVisits is the
	// per-node body total, HysteresisTrips / RevertedSweeps the
	// solver-level cutover accounting, both for /solve requests.
	Eval            rc.EvalStats `json:"eval"`
	NodeVisits      int64        `json:"node_visits"`
	HysteresisTrips int64        `json:"hysteresis_trips"`
	RevertedSweeps  int64        `json:"reverted_sweeps"`
	// Durable-store accounting (ogwsd -data): DedupHits counts /solve
	// requests answered from the store without running the solver,
	// ReloadedCircuits / ReloadedResults what the last boot replayed,
	// ForeignResults the saved results it skipped because another
	// core.Numerics wrote them, and StoreRecords the store's current key
	// count. StoreErrors counts persistence failures — the solve still
	// succeeds, only durability is degraded, so the counter (not the
	// response) is where they surface.
	DedupHits        int64 `json:"dedup_hits"`
	StoreErrors      int64 `json:"store_errors,omitempty"`
	ReloadedCircuits int64 `json:"reloaded_circuits,omitempty"`
	ReloadedResults  int64 `json:"reloaded_results,omitempty"`
	ForeignResults   int64 `json:"foreign_results,omitempty"`
	StoreRecords     int   `json:"store_records,omitempty"`
	// StoreMode is "rw" or "degraded" (read-only after persistent write
	// failure; see storeGate), present when the server has a store.
	// StoreDegrades / StoreRecoveries count the mode flips and
	// StoreWritesSkipped the writes dropped while degraded.
	StoreMode          string `json:"store_mode,omitempty"`
	StoreDegrades      int64  `json:"store_degrades,omitempty"`
	StoreRecoveries    int64  `json:"store_recoveries,omitempty"`
	StoreWritesSkipped int64  `json:"store_writes_skipped,omitempty"`
	// OverloadSheds counts solve/sweep requests rejected 503 by the
	// admission gate (queue past MaxQueuedSolves, or draining);
	// SolvesCancelled counts solves and sweeps a disconnected client
	// stopped mid-flight at an iteration boundary.
	OverloadSheds   int64 `json:"overload_sheds,omitempty"`
	SolvesCancelled int64 `json:"solves_cancelled,omitempty"`
	// Process-variation accounting: MonteCarlos counts POST /montecarlo
	// runs (MCSamples their sample solves, MCSamplesPerSec the aggregate
	// sample throughput); CornerSweeps counts corners-mode sweep requests
	// and CornerCells their per-corner solves.
	MonteCarlos     int64   `json:"montecarlos,omitempty"`
	MCSamples       int64   `json:"montecarlo_samples,omitempty"`
	MCSec           float64 `json:"montecarlo_sec,omitempty"`
	MCSamplesPerSec float64 `json:"montecarlo_samples_per_sec,omitempty"`
	CornerSweeps    int64   `json:"corner_sweeps,omitempty"`
	CornerCells     int64   `json:"corner_cells,omitempty"`
	CornerSec       float64 `json:"corner_sec,omitempty"`
	// Farm, present only in -coordinator mode, reports the worker fleet:
	// per-worker job/cell counters plus reap and re-queue totals. Work a
	// worker performed remotely is folded into the counters above when its
	// results land (a remote solve's Eval counters count exactly once).
	Farm *farm.Stats `json:"farm,omitempty"`
}

func (st *serverStats) snapshot(instances int, hits, misses, evictions int64) Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := Stats{
		Instances: instances,
		CacheHits: hits, CacheMiss: misses, Evictions: evictions,
		Solves: st.solves, Sweeps: st.sweeps, SweepCells: st.sweepCells,
		SweepLRSSweeps: st.sweepLRSSweeps, SolveSec: st.solveSec, SweepSec: st.sweepSec,
		Eval:             st.eval,
		NodeVisits:       st.eval.NodeVisits(),
		HysteresisTrips:  st.hystTrips,
		RevertedSweeps:   st.revertedSweeps,
		DedupHits:        st.dedupHits,
		StoreErrors:      st.storeErrors,
		ReloadedCircuits: st.reloadedCircuits,
		ReloadedResults:  st.reloadedResults,
		ForeignResults:   st.foreignResults,
		OverloadSheds:    st.overloadSheds,
		SolvesCancelled:  st.solvesCancelled,
		MonteCarlos:      st.montecarlos,
		MCSamples:        st.mcSamples,
		MCSec:            st.mcSec,
		CornerSweeps:     st.cornerRuns,
		CornerCells:      st.cornerCells,
		CornerSec:        st.cornerSec,
	}
	if st.sweepSec > 0 {
		out.SweepCellsPerSec = float64(st.sweepCells) / st.sweepSec
	}
	if st.mcSec > 0 {
		out.MCSamplesPerSec = float64(st.mcSamples) / st.mcSec
	}
	return out
}

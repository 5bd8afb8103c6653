// Package service is the long-running sizing service behind cmd/ogwsd: an
// HTTP/JSON front end over the solver stack that amortizes instance
// construction across requests.
//
// The expensive part of a sizing request is not the solve — PRs 1–4 made
// solves parallel, incremental, and warm-startable — but the front end
// that turns a netlist into a solvable instance (logic simulation, wire
// ordering, coupling extraction). The service pays it once per circuit:
// POST /circuits elaborates a netlist (uploaded .bench text or a built-in
// synthetic spec) into a bench.Instance cached under its content hash
// (bench.NetlistKey / bench.SpecKey), and every later request addresses
// the instance by that key. The cache is LRU-bounded; an evicted circuit
// just re-registers.
//
// Endpoints:
//
//	POST /circuits    register a netlist, synthetic spec or grid mesh →
//	                  instance key
//	GET  /circuits    list cached instances and their saved results
//	POST /solve       one OGWS solve at given bounds, optionally
//	                  warm-started from a result saved by a prior solve
//	                  (save_as / warm_from) or from inline sizes + dual
//	                  state
//	POST /sweep       a bounds-grid sweep (internal/sweep), or with
//	                  corners=true the five-corner process enumeration
//	                  (internal/variation); stream=true emits NDJSON cells
//	                  as they complete
//	POST /montecarlo  a seeded Monte-Carlo yield analysis
//	                  (internal/variation)
//	GET  /results     export a saved result (sizes + dual snapshot)
//	GET  /watch       a circuit's live progress events, long-poll or SSE
//	GET  /stats       cache, throughput, and evaluator work counters
//	GET  /healthz     liveness
//
// Every run request — /solve, /sweep in either mode, /montecarlo — is the
// OGWS solve run once or many times, and takes one lifecycle (run.go):
// admission, the circuit lock and a solve slot in that order, a dedup
// lookup in the durable store, a *_start event on /watch, the run, and
// either a done event with the response or an error event with a 503
// (the client went away), a 422, or an in-band error line once a stream
// has begun.
//
// # Concurrency
//
// Concurrency is two-level, mirroring the sweep engine. Requests fan out
// on the HTTP server's goroutines, bounded by a server-wide solve
// semaphore (Options.MaxConcurrentSolves); each solve's inner loops shard
// onto the solver's worker pool at the width the request asks for (workers;
// unset means 1, negative all cores, and more than GOMAXPROCS is clamped
// to it). A per-instance mutex serializes solves and sweeps on one
// circuit: solves run on evaluator replicas (bench.Instance.Replica) so
// the shared instance is never mutated, but serializing keeps per-circuit
// memory at one replica and makes warm-start chains (solve, save, solve
// warm_from) atomic. Grid sweeps
// additionally fan their rows onto internal/fanout inside sweep.Run, and
// Monte-Carlo samples and corners fan out over the cores inside
// internal/variation.
//
// # Determinism
//
// The service adds no numerics, so it inherits the repo-wide contract:
// for a given registered circuit and request parameters, the returned
// result is bit-identical to the equivalent offline core.Solver.Run /
// sweep.Run at every workers width and every concurrency interleaving.
// The golden e2e tests pin POST /solve responses to the committed golden
// fixtures bitwise, and the CI smoke re-checks it over a real TCP
// connection (see TESTING.md, "The service oracle").
package service

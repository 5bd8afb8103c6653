// Package rc is the Elmore-delay RC evaluation engine for sized circuit
// graphs (Section 2.1 of the paper). For a size vector x it computes, in
// one linear pass each:
//
//   - RecomputeLoads: per-node capacitance cᵢ and effective resistance rᵢ,
//     the coupling sums, and the stage-local downstream loads Bᵢ with the
//     Elmore delay loads Cᵢ/C′ᵢ (reverse topological order) — everything
//     Theorem 5's resize and the upstream pass read;
//   - RecomputeArrivals: Elmore node delays Dᵢ = rᵢ·Cᵢ with the paper's
//     stage decomposition (gates decouple stages; a gate's input
//     capacitance terminates the stage of each of its fan-in nets) and
//     arrival times aᵢ = max_{j∈input(i)} aⱼ + Dᵢ (forward topological
//     order), which the critical path and required times read;
//   - UpstreamResistance: the weighted upstream resistances
//     Rᵢ = Σ_{k∈upstream(i)} λₖ·rₖ used by Theorem 5 (forward topological
//     order);
//   - the totals (area, capacitance/power, crosstalk) of problem P̃.
//
// Recompute is RecomputeLoads then RecomputeArrivals. The solver's LRS
// sweeps refresh loads only and pay one arrival pass per LRS call.
//
// Coupling capacitances enter each wire's own downstream load Cᵢ (their
// x-dependence is priced by Theorem 5's Σĉᵢⱼxⱼ term) but are not seen by
// upstream resistances, keeping the evaluated Lagrangian exactly consistent
// with the paper's optimality conditions; see DESIGN.md §2.
//
// All delays are in ps, resistances in Ω, capacitances in fF, sizes in µm.
//
// # Levelized scheduling
//
// The three topological passes (stage loads B/C in RecomputeLoads, arrival
// times in RecomputeArrivals, the weighted upstream resistances in
// UpstreamResistance) carry chain dependencies, so they cannot be sharded
// as flat index ranges the way the per-node electrical pass can. Instead
// they are scheduled over the graph's topological levels (circuit.Graph.Level): every edge strictly
// increases the level, so nodes sharing a level are mutually independent
// and each level is a parallel region separated from the next by a barrier.
// With a Runner installed the passes run level by level through it; without
// one they fall back to the plain index-order reference loops
// (RecomputeSerial, UpstreamResistanceSerial). Both schedules execute the
// identical per-node bodies and every per-node accumulation folds in the
// same fan-in/fan-out list order, so serial, levelized-inline, and
// levelized-parallel results are bit-identical — a guarantee the golden,
// property, and fuzz suites enforce.
//
// # Incremental (dirty-cone) evaluation
//
// Between evaluations the engine tracks which sizes changed (MarkDirty;
// SetSize/SetSizes/SetAllSizes mark automatically) and
// RecomputeLoadsIncremental / UpstreamResistanceIncremental refresh only
// the cones those changes can reach, walking the level buckets with the
// same per-node bodies. Both walks are stage-local: the loads walk runs
// backward and stops at the driving gate, the upstream walk runs forward
// and stops at the next gate. Arrivals have no walk — a moved size moves
// every arrival in its fan-out cone — so RecomputeIncremental, which keeps
// everything up to date, is the loads walk plus one full RecomputeArrivals,
// run only when a loads refresh has run since the last arrival pass. The
// invariant is strict: a node is skipped only when every input its body
// reads is bitwise unchanged, so the incremental passes are bit-identical
// to the full ones on every input (FuzzIncremental and the solver-level
// golden suites pin this with exact == comparisons). When the dirty set
// grows past a fraction of the circuit (the coneWorthwhile cutover,
// dirty > ⅛ of nodes) a refresh degrades to the — equally exact — full
// pass and reports cone=false so callers can over-activate; the split
// EvalStats counters (CutoverRecomputes vs DegradedRecomputes) let the
// solver's hysteresis distinguish a cutover streak (dense coupling
// defeating the bookkeeping) from the routine pre-first-pass fallback.
//
// EvalStats/Stats/ResetStats expose the pass and per-node-body work
// counters the benchmark trajectory and the sizing service report;
// maintaining them costs nothing inside the parallel bodies.
package rc

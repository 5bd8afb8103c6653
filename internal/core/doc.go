// Package core implements the paper's primary contribution: optimal area
// minimization under crosstalk (noise), delay, and power constraints by
// simultaneous gate and wire sizing, using Lagrangian relaxation
// (Section 4).
//
// The problem P̃ solved here is
//
//	minimize   Σ αᵢxᵢ
//	subject to aⱼ ≤ A0                    (j feeding the sink)
//	           aⱼ + Dᵢ ≤ aᵢ               (component edges)
//	           Dᵢ ≤ aᵢ                    (drivers)
//	           Σ cᵢ ≤ P′                  (power, P′ = P_B/V²f)
//	           Σ wᵢⱼ·ĉᵢⱼ(xᵢ+xⱼ) ≤ X′     (crosstalk, X′ = X_B − Σ wᵢⱼc̃ᵢⱼ)
//	           Lᵢ ≤ xᵢ ≤ Uᵢ.
//
// Solver.Run is Algorithm OGWS (Figure 9): a projected subgradient ascent
// on the Lagrangian dual whose inner subproblem LRS (Figure 8) is solved by
// greedy sweeps of Theorem 5's closed-form optimal resizing
//
//	optᵢ = √( λᵢ·r̂ᵢ·(C′ᵢ + Σ_{j∈N(i)} wᵢⱼĉᵢⱼxⱼ)
//	        / (αᵢ + (β+Rᵢ)·ĉᵢ + γ·Σ_{j∈N(i)} wᵢⱼĉᵢⱼ) ).
//
// # Execution modes and invariants
//
// One solve is parallel: Options.Workers shards every per-node loop onto
// a reusable worker pool, and installs the levelized Runner on the
// evaluator. It is also incremental, with no option to select it: every
// LRS call runs the dirty-cone/active-set engine, which skips work only
// where re-running a body could not change a single bit. Both are
// scheduling only: results are bit-identical at every Workers width and
// to the paper's full-pass LRS loop, the invariant the golden fixtures,
// the property suites, and FuzzIncremental all enforce with exact
// comparisons. The cutover hysteresis reverts one Run to the full-pass
// loop after K = 24 consecutive coneWorthwhile-cutover degrades — a
// scheduling decision for densely coupled circuits, again changing no
// bits (HysteresisTrips/RevertedSweeps expose the accounting). K is a
// constant; the package's tests set it per Solver (export_test.go): K = 0
// runs every sweep on full passes, the reference the engine-vs-full
// oracles compare against, and a negative K never reverts.
//
// # The floor skip
//
// The resize runs on every sizable node in every LRS sweep, and an area
// optimum leaves most non-critical gates and wires at their lower bound
// Lᵢ with optᵢ below it. Such a node stays at Lᵢ without the damped
// update's two logs and exp when optᵢ < Lᵢ·τ, τ = (1−10⁻⁹)^(1/ω) computed
// once per Solver. (At ω = 1 the update is optᵢ itself, with no logs to
// save, so the skip is not consulted.) The skip is bit-exact. The exact update Lᵢ·(optᵢ/Lᵢ)^ω is then below
// Lᵢ·τ^ω = Lᵢ·(1−10⁻⁹), and the formula's rounding error, about 10⁻¹²
// relative for any representable Lᵢ and the 10⁻³⁰⁰ floor on optᵢ, cannot
// carry it up to Lᵢ: the clamp returns Lᵢ, exactly what the skip returns.
// (The skip compares max(optᵢ, 10⁻³⁰⁰), the optimum the formula reads,
// so floors below 10⁻³⁰⁰ stay exact too.) The margin is needed: with a
// plain optᵢ < Lᵢ test, an optimum a few ulps under Lᵢ gives an update
// within rounding of Lᵢ, and the formula can land just above it. A
// bitwise table test against the unskipped formula pins both facts. The
// skip is only a predicate, floorPinned, checked inline in resizeNode:
// the update itself stays in resizeNode, so a resize the skip does not
// take costs no more than before it.
//
// # Warm starts
//
// RunFrom seeds the sizes through rc.SetSizes, so a near-solution seed (a
// neighbouring bounds cell, an ECO) reaches the dirty-cone engine as a
// small perturbation; RunFromDual additionally seeds the multipliers from
// a DualState snapshot of a prior Run, starting the ascent beside the
// dual optimum — the half that actually shortens OGWS, since the
// trajectory is driven by the multipliers. With Options.WarmStart false
// (the paper-faithful S1 reset) the trajectory is independent of the size
// seed, so RunFrom is bit-identical to Run from any seed — the
// seed-independence contract the sweep engine's warm-vs-cold oracle and
// the sizing service's tests pin. DualState serializes to JSON exactly
// (shortest round-trip floats), so saved solves can warm-start new ones
// across process boundaries.
package core

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
// Each sweep sets every size to the paper's pure update (S4),
// xᵢ ← clamp(optᵢ, Lᵢ, Uᵢ), with no damping and no logs or exps.
//
// # The ascent
//
// The paper's A4 asks only for a subgradient step whose sizes satisfy
// ρₖ → 0 and Σρₖ = ∞. Run implements one rule for it, with no option to
// select another:
//
//   - A1 seeds the multipliers at the problem's natural dual magnitudes.
//     With S = Σαᵢ√(LᵢUᵢ), the geometric mid-range area, and m sink edges,
//     every edge multiplier starts at S/(A0·m) (the total timing flow S/A0
//     spread over the sink edges) before the flow projection, β at S/P′
//     and γ at S/X′. Multipliers carry objective-per-constraint units
//     (µm²/ps, µm²/fF); unit seeds would leave every optᵢ below its lower
//     bound and the ascent would crawl.
//   - Every violation is normalized by its bound (A0, P′, X′, or a
//     per-net X′ᵥ) and clamped to [−1, 1], so one step scale serves every
//     circuit and the large early violations cannot overshoot.
//   - The step is Polyak's, ρ = (f̂ − D)/‖h‖²: f̂ is the best feasible area
//     so far (before one exists, the current area times 1 plus its
//     relative infeasibility), D the current dual value, and ‖h‖² the
//     squared norm of the normalized subgradient without the coordinates
//     whose multiplier is 0 and whose constraint is slack. It is floored
//     at 0.1·ρₖ·S/m with ρₖ = 2/√k, the paper's diminishing schedule, and
//     is 10 times that floor when f̂ − D ≤ 0 or ‖h‖² vanishes; a stale f̂
//     would otherwise freeze the ascent. IterStats.Rho records ρₖ.
//   - A damping factor shrinks the step ×0.6 each time the iterate flips
//     between feasible and infeasible (the step straddles the dual kink)
//     and recovers it ×1.1 per stable iteration, kept within [0.01, 1].
//   - A positive multiplier moves at most within the trust corridor
//     [v/T, v·T] per step, with T = 1 + 4/k^0.75. The corridor anneals
//     global travel into local refinement while Σ log T diverges, so no
//     multiplier value becomes unreachable; a multiplier at 0 grows
//     additively, and every step clamps at 0.
//   - A5 projects the edge multipliers back onto Theorem 3's flow
//     conservation (lagrange.Multipliers.ProjectFlow).
//
// The LRS subproblem inside each iteration stops once a sweep's largest
// relative size change falls below 10⁻⁷ (Figure 8, S5). A Jacobi sweep of
// the pure update could in principle oscillate, so lrsMaxSweeps (200)
// caps each call as the guard against it; no LRS call of a catalog
// circuit comes near the cap (TestLRSNeverHitsSweepCap).
//
// # Execution modes and invariants
//
// One solve runs serially on the calling goroutine, every per-node loop
// in node order; the cores belong to independent solves run side by side
// (bench.Instance.RunPlan, repro.OptimizeBatch). A solve is incremental,
// with no option to select it: every LRS call runs the
// dirty-cone/active-set engine, which skips work only where re-running a
// body could not change a single bit. That is scheduling only: results
// are bit-identical to the paper's full-pass LRS loop, the invariant the
// golden fixtures, the property suites, and FuzzIncremental all enforce
// with exact comparisons. The cutover hysteresis reverts one Run to the full-pass
// loop after K = 24 consecutive coneWorthwhile-cutover degrades — a
// scheduling decision for densely coupled circuits, again changing no
// bits (HysteresisTrips/RevertedSweeps expose the accounting). K is a
// constant; the package's tests set it per Solver (export_test.go): K = 0
// runs every sweep on full passes, the reference the engine-vs-full
// oracles compare against, and a negative K never reverts.
//
// # Warm starts
//
// Options.WarmStart decides only where a solve starts. False is the
// paper's S1: Run resets every sizable node to its lower bound once,
// before A1. True starts from the evaluator's current sizes. Either way
// every LRS call after the first, the dual polish's included, starts from
// the sizes the previous call left: L is convex in log-sizes, so that
// start changes the sweeps a call takes, not the minimizer it reaches,
// and a reset per call would only add sweeps.
//
// RunFrom seeds the sizes through rc.SetSizes, so a near-solution seed (a
// neighbouring bounds cell, an ECO) reaches the dirty-cone engine as a
// small perturbation; RunFromDual additionally seeds the multipliers from
// a DualState snapshot of a prior Run, starting the ascent beside the
// dual optimum — the half that actually shortens OGWS, since the
// trajectory is driven by the multipliers. With WarmStart false the S1
// reset makes the trajectory independent of the size seed, so RunFrom is
// bit-identical to Run from any seed — the seed-independence contract the
// sweep engine's warm-vs-cold oracle and the sizing service's tests pin.
// DualState serializes to JSON exactly (shortest round-trip floats), so
// saved solves can warm-start new ones across process boundaries.
package core

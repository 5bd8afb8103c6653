// Package sweep is the bounds-grid sweep engine: one shared
// bench.Instance solved across a grid of delay/noise bounds, producing
// the paper's family of noise/delay/power trade-off points (Table 1,
// Figure 10) as a single workload.
//
// The engine amortizes the expensive front end — netlist generation,
// logic simulation, elaboration, wire ordering, coupling extraction —
// across every cell: the instance is built once and each cell solves on a
// lightweight evaluator replica over the instance's shared topology.
// Every cell is one call of the shared cell kernel, bench.SolveCell.
// Cells are warm-started on both halves of the problem: each one seeds
// the solver with the final sizes of its nearest already-solved neighbour
// through core.Solver.RunFromDual (rc.SetSizes under the hood), so the
// PR-3 dirty-cone/active-set engine sees a neighbouring bounds cell as an
// ECO-sized perturbation of a near-solution instead of a cold solve — and,
// unless PrimalOnly, with the neighbour's final Lagrange multipliers, so
// the subgradient ascent starts beside the dual optimum and certifies
// convergence in a fraction of the cold iteration count.
//
// The warm-start sources form a static wavefront — cell (i,0) seeds from
// (i−1,0) and cell (i,j) from (i,j−1) — so the seeding chain of every
// cell is fixed in advance: results never depend on completion order or
// on how many rows solve concurrently, and the whole grid is
// bit-reproducible at every SweepWorkers width (the golden sweep fixture
// enforces this). The engine only plans: the grid
// becomes a bench.Plan — the column-0 spine as one chain, each row's tail
// as a chain that waits on its spine cell, or for a seed-independent
// sweep one independent batch — and a bench.Runner solves it, the local
// runner (bench.Instance.RunPlan) in Run, or the runner RunOn is given,
// such as a farm coordinator's. Long-running callers can observe cells as
// they finish through Options.OnCell (the sizing service's row streaming)
// without affecting a single solved bit.
package sweep

package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/lagrange"
	"repro/internal/rc"
)

// Options configures the OGWS solver. The zero value is not valid: A0 must
// be positive; use DefaultOptions for sensible defaults.
type Options struct {
	// A0 is the arrival-time bound at every primary output, in ps.
	A0 float64
	// NoiseBound is X_B in fF, the bound on total (weighted) coupling
	// capacitance Σ wᵢⱼ·cᵢⱼ. Zero or negative disables the crosstalk
	// constraint (γ stays 0, reducing OGWS to delay/power-only LR sizing).
	NoiseBound float64
	// PowerCapBound is P′ in fF: the power bound after dividing by V²f
	// (use tech.Params.CapForPower to convert from mW). Zero or negative
	// disables the power constraint.
	PowerCapBound float64
	// PerNetNoiseBounds implements the extension the paper sketches in
	// Section 4.1: a distributed crosstalk bound per net. The map assigns
	// wire nodes v a bound X′_v on their own linear coupling
	// Σ_{j∈N(v)} wᵥⱼ·ĉᵥⱼ(x_v+x_j), each carrying its own multiplier γᵥ.
	// Composes freely with the global NoiseBound. Keys must be wire nodes
	// with at least one coupling pair; bounds must be positive.
	PerNetNoiseBounds map[int]float64
	// Epsilon is the relative duality-gap stopping threshold (paper: 1%).
	Epsilon float64
	// MaxIterations bounds the outer OGWS iterations.
	MaxIterations int
	// Step is the subgradient step schedule ρₖ.
	Step lagrange.Schedule
	// InitMultiplier seeds every edge multiplier before the initial
	// projection; InitBeta and InitGamma seed the scalar multipliers.
	InitMultiplier, InitBeta, InitGamma float64
	// LRSMaxSweeps bounds the inner greedy sweeps per OGWS iteration;
	// LRSTol is the max relative size change that counts as "no
	// improvement" (Figure 8, S5).
	LRSMaxSweeps int
	LRSTol       float64
	// LRSDamping blends each resize in log space:
	// x ← x^(1−ω)·optᵢ^ω with ω = LRSDamping ∈ (0,1]. ω = 1 is the
	// paper's pure update, which can oscillate under the Jacobi sweep;
	// any ω keeps the same fixed point (Theorem 5's optᵢ). A size at its
	// lower bound Lᵢ whose optimum is below Lᵢ·(1−10⁻⁹)^(1/ω) is left
	// there without evaluating the blend; the result is bit-identical,
	// because the blend is then at least 10⁻⁹ relative below Lᵢ and the
	// clamp returns Lᵢ anyway (see the package documentation).
	LRSDamping float64
	// WarmStart keeps the previous iteration's sizes as the LRS starting
	// point instead of the paper's S1 reset to the lower bounds. The
	// subproblem has a unique optimum (posynomial ⇒ convex after the log
	// transform), so both reach it; warm starts just take fewer sweeps.
	WarmStart bool
	// RelativeViolations normalizes every subgradient component by its
	// bound, making one step scale work across circuit sizes.
	RelativeViolations bool
	// Polyak switches the step size to the adaptive Polyak rule
	// ρₖ = θ·(f̂ − D(λₖ))/‖h‖², where f̂ is the best feasible area seen so
	// far (estimated from the current iterate before one exists), D the
	// current dual value, and ‖h‖² the squared norm of the normalized
	// active subgradient. Self-scaling: converges in far fewer iterations
	// than the classic diminishing schedule and needs no tuning. When
	// false, Step is used as in the paper's A4.
	Polyak bool
	// PolyakTheta is the relaxation factor θ ∈ (0, 2); default 1.
	PolyakTheta float64
	// Workers is the number of goroutines used for the solver's per-node
	// parallel loops (the LRS resize sweep, the evaluator's independent
	// Recompute passes, multiplier node sums, subgradient steps, and
	// gradient norms) and for the evaluator's levelized topological passes
	// (stage loads, arrival times, upstream resistances), which run depth
	// bucket by depth bucket across the same pool. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs serially. Every reduction is
	// deterministic — maxima are exact under any grouping and sums are
	// folded in node order from per-node scratch — so results are
	// bit-identical for every Workers setting.
	Workers int
	// Incremental enables dirty-cone evaluation and active-set sweeps
	// inside LRS: between sweeps the evaluator refreshes only the forward/
	// backward cones of the sizes that actually moved
	// (rc.RecomputeIncremental / rc.UpstreamResistanceIncremental), and the
	// Theorem-5 resize skips nodes that reached a bitwise fixed point until
	// a neighbour's change reactivates them. With ActiveSetTol = 0 (the
	// default) results are bit-identical to the full passes — a node is
	// skipped only when re-running its body could not change a single bit —
	// so the golden fixtures hold in either mode. False is the escape
	// hatch: every sweep runs the full passes of the paper's Figure 8.
	// DefaultOptions turns it on.
	Incremental bool
	// ActiveSetTol is the per-node relative movement at or below which an
	// active-set sweep deactivates a node (Incremental only). 0 deactivates
	// only bitwise-stationary nodes, preserving exactness; larger values
	// prune harder and trade last-bits accuracy for speed (the final
	// metrics are still evaluated by a full pass on the actual sizes).
	ActiveSetTol float64
	// CutoverHysteresis is K, the number of consecutive LRS sweeps whose
	// incremental refresh degraded past the coneWorthwhile cutover after
	// which one Run stops paying dirty-set bookkeeping altogether and
	// reverts to the full-pass path for the remainder of the solve
	// (equivalent to Incremental = false from that sweep on). On densely
	// coupled circuits nearly every sweep blows past the cutover, so the
	// bookkeeping buys nothing and previously cost ~10% wall-clock; a
	// cutover streak is the cheap, reliable signal of that regime, and
	// since a degraded sweep runs the (bit-identical) full passes anyway,
	// the revert is purely a scheduling decision — results do not change by
	// a single bit. The streak resets whenever a refresh walks a cone, and
	// the pre-first-pass fallback never counts. 0 selects
	// DefaultCutoverHysteresis; negative disables the hysteresis (the
	// pre-PR-4 behaviour).
	CutoverHysteresis int
	// AutoScale multiplies the multiplier seeds and subgradient steps by
	// the problem's natural dual magnitudes: S/A0 for the timing weights
	// and S/P′, S/X′ for β, γ, where S = Σαᵢ√(LᵢUᵢ) is the geometric
	// mid-range area. Lagrange multipliers carry units of
	// objective-per-constraint (µm²/ps, µm²/fF); without this, unit-scale
	// seeds leave every optᵢ below its lower bound and the subgradient
	// ascent crawls. The paper's A1 allows any positive seed and the step
	// condition (ρₖ→0, Σρₖ=∞) is preserved.
	AutoScale bool
	// KeepHistory records per-iteration statistics in the result.
	KeepHistory bool
	// OnIteration, when non-nil, is called once per OGWS iteration with
	// the iteration's statistics, constraint violations, and the
	// evaluation-work delta since the previous iteration. The hook runs
	// on the solving goroutine between A3 and A4 and must not call back
	// into the Solver; it observes the trajectory without perturbing it —
	// results are bit-identical with or without a hook installed.
	OnIteration func(IterProgress)
	// Cancel, when non-nil, is polled once per OGWS iteration at the
	// iteration boundary (before A2); once it returns true Run stops and
	// returns ErrCancelled. The poll sits between iterations, so a solve
	// whose Cancel never fires runs the exact same arithmetic as one with
	// no hook at all — results stay bit-identical. Cancellation latency is
	// one full iteration (the inner LRS has no preemption points). The
	// sizing service wires the request context in here so an abandoned
	// solve stops burning the solver pool.
	Cancel func() bool
}

// ErrCancelled is returned by Run (and RunFromDual) when Options.Cancel
// reported true at an iteration boundary. The solver's multiplier state is
// left mid-ascent and must not be reused as a warm-start snapshot.
var ErrCancelled = errors.New("core: solve cancelled")

// DefaultCutoverHysteresis is the default Options.CutoverHysteresis,
// placed by measurement between the two recorded regimes: the warm-started
// c880 solve — the engine's best case — peaks at 22 consecutive cutovers
// during its early global-movement iterations before cone walks take over,
// while the dense-coupling grid32x24 solve (the PR-3 regression) streaks
// past 30 within its first iterations and keeps degrading throughout. 24
// leaves the healthy workload untouched and stops the pathological one
// early; both committed benchmarks pin their hystTripsPerSolve metric.
const DefaultCutoverHysteresis = 24

// DefaultOptions returns the settings used throughout the experiments:
// 1% duality gap as in the paper, ρₖ = 2/√k, relative violations, warm
// starts off (faithful to Figure 8's S1).
func DefaultOptions(a0, noiseBound, powerCapBound float64) Options {
	return Options{
		A0:                 a0,
		NoiseBound:         noiseBound,
		PowerCapBound:      powerCapBound,
		Epsilon:            0.01,
		MaxIterations:      1000,
		Step:               lagrange.InverseSqrtK(2),
		InitMultiplier:     1,
		InitBeta:           1,
		InitGamma:          1,
		LRSMaxSweeps:       200,
		LRSTol:             1e-7,
		LRSDamping:         0.7,
		Incremental:        true,
		RelativeViolations: true,
		AutoScale:          true,
		Polyak:             true,
		PolyakTheta:        1,
	}
}

// validate rejects the knobs that have no sane substitute (a missing or
// non-finite delay bound, negative or NaN multiplier seeds) and normalizes
// the rest: every tolerance, damping factor, and count falls back to its
// DefaultOptions value when zero, negative, or NaN. NaN needs explicit
// checks throughout — it slides through every `<= 0` comparison, and a NaN
// tolerance silently disables loop exits (`maxRel < NaN` is always false)
// while a NaN step or damping poisons every size downstream.
func (o *Options) validate() error {
	if o.A0 <= 0 || math.IsNaN(o.A0) {
		return fmt.Errorf("core: delay bound A0 must be positive, got %g", o.A0)
	}
	if o.Epsilon <= 0 || math.IsNaN(o.Epsilon) {
		o.Epsilon = 0.01
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1000
	}
	if o.Step == nil {
		o.Step = lagrange.InverseSqrtK(2)
	}
	if o.LRSMaxSweeps <= 0 {
		o.LRSMaxSweeps = 200
	}
	if o.LRSTol <= 0 || math.IsNaN(o.LRSTol) {
		o.LRSTol = 1e-7
	}
	if o.LRSDamping <= 0 || o.LRSDamping > 1 || math.IsNaN(o.LRSDamping) {
		o.LRSDamping = 0.7
	}
	if o.ActiveSetTol < 0 || math.IsNaN(o.ActiveSetTol) {
		o.ActiveSetTol = 0
	}
	if o.CutoverHysteresis == 0 {
		o.CutoverHysteresis = DefaultCutoverHysteresis
	}
	if o.PolyakTheta <= 0 || o.PolyakTheta >= 2 || math.IsNaN(o.PolyakTheta) {
		o.PolyakTheta = 1
	}
	if o.Workers < 0 {
		o.Workers = 0 // same meaning: pick runtime.GOMAXPROCS(0)
	}
	if o.InitMultiplier < 0 || o.InitBeta < 0 || o.InitGamma < 0 ||
		math.IsNaN(o.InitMultiplier) || math.IsNaN(o.InitBeta) || math.IsNaN(o.InitGamma) {
		return fmt.Errorf("core: initial multipliers must be non-negative, got λ=%g β=%g γ=%g",
			o.InitMultiplier, o.InitBeta, o.InitGamma)
	}
	return nil
}

// IterStats records one OGWS iteration for convergence studies.
type IterStats struct {
	K          int
	Rho        float64
	Area       float64 // Σαᵢxᵢ (µm²)
	DelayPs    float64 // critical-path arrival (ps)
	PowerCapFF float64 // Σcᵢ (fF)
	NoiseLinFF float64 // Σwĉ(xᵢ+xⱼ) (fF)
	Dual       float64 // L(x) at the LRS minimizer
	Gap        float64 // (Area − Dual)/Area
	LRSSweeps  int
}

// IterProgress is the per-iteration payload delivered to
// Options.OnIteration: the IterStats the history would record, plus the
// constraint violations (positive = violated, in each constraint's own
// unit), the relative primal feasibility the convergence check uses, and
// the evaluation-work counters spent by this iteration alone.
type IterProgress struct {
	IterStats
	// DelayViolation is max(0, maxArrival − A0) in ps; Power and Noise
	// are the raw bound excesses in fF (0 when the bound is disabled).
	DelayViolation float64
	PowerViolation float64
	NoiseViolation float64
	// Feasibility is the relative primal feasibility measure compared
	// against Epsilon by the A7 stopping rule.
	Feasibility float64
	// Eval is the evaluation work performed by this iteration (a
	// Stats-snapshot delta, not the cumulative counters).
	Eval rc.EvalStats
}

// Result is the outcome of Solver.Run.
type Result struct {
	// X is the final size vector indexed by circuit node.
	X []float64
	// Iterations is the number of OGWS iterations executed; Converged
	// reports whether the duality gap reached Epsilon before
	// MaxIterations.
	Iterations int
	Converged  bool
	// Gap is the final relative duality gap |Area − Dual|/Area.
	Gap  float64
	Dual float64
	// Final metrics at X.
	Area       float64
	DelayPs    float64
	PowerCapFF float64
	NoiseLinFF float64
	NoiseExact float64
	// Constraint violations at X (positive = violated, in the constraint's
	// own unit).
	DelayViolation float64
	PowerViolation float64
	NoiseViolation float64
	// PerNetNoiseViolation is the largest per-net crosstalk violation in
	// fF (0 when the extension is unused or satisfied).
	PerNetNoiseViolation float64
	// LRSSweepsTotal counts inner sweeps across all iterations.
	LRSSweepsTotal int
	// MemoryBytes is the analytic solver footprint (graph + coupling +
	// evaluator + multipliers + solver arrays) for Figure 10(a).
	MemoryBytes int
	History     []IterStats
}

// Solver runs OGWS on one evaluator. Create with NewSolver; a Solver is
// single-goroutine (the worker pool it drives internally is an
// implementation detail — no two Solver methods may run concurrently).
// Call Close when done to release the worker goroutines promptly; a
// runtime cleanup reclaims them otherwise once the Solver is collected.
type Solver struct {
	ev   *rc.Evaluator
	opt  Options
	mult *lagrange.Multipliers

	workers int
	pool    *pool
	cleanup runtime.Cleanup

	lambda  []float64 // node multiplier sums λᵢ
	rup     []float64 // weighted upstream resistances Rᵢ
	xBound  float64   // X′; NaN when disabled
	pBound  float64   // P′; NaN when disabled
	rEff    []float64 // tech.RC·r̂ᵢ per node (0 for non-sizable)
	history []IterStats

	// Parallel-loop scratch: per-shard max reductions and per-node sum
	// terms (folded serially in index order so totals are independent of
	// the sharding).
	shardMax    []float64
	normScratch []float64

	// Active-set LRS state (Incremental mode): the sizable node index,
	// the current active list with its dedup bitmap, and the reusable
	// per-shard dirty buffers the resize sweep fills — movedEval collects
	// bitwise moves (they drive the incremental refresh), movedAct the
	// moves beyond ActiveSetTol (they stay active next sweep). Excluded
	// from memoryBytes like shardMax: the analytic footprint must be
	// identical for every execution mode.
	sizable   []int32
	active    []int32
	inActive  []bool
	movedEval [][]int32
	movedAct  [][]int32

	// Cutover-hysteresis state. degradeStreak counts consecutive LRS
	// sweeps whose incremental refresh degraded past the coneWorthwhile
	// cutover; incReverted flips once the streak reaches
	// Options.CutoverHysteresis and routes every remaining sweep of the
	// current Run through the full-pass path. Both reset at the top of Run.
	// hystTrips / revertedSweeps accumulate across Runs for the benchmark
	// work accounting (see Solver.HysteresisTrips / RevertedSweeps).
	degradeStreak  int
	incReverted    bool
	hystTrips      int64
	revertedSweeps int64

	// pendingDual holds a RunFromDual seed for the next Run; consumed (and
	// cleared) at A1.
	pendingDual *DualState

	// Lockstep state (NewLockstepSolver): the gate whose batched rounds
	// carry this solver's LRS evaluator passes, and this solver's replica
	// index in it.
	ls    *Lockstep
	lsRep int

	// Per-net crosstalk extension state (nil when unused).
	vBound []float64 // X′_v per node; NaN where unconstrained
	gammaV []float64 // γᵥ per node
	denV   []float64 // Σ_{(i,j)} (γᵢ+γⱼ)·wᵢⱼ·ĉᵢⱼ, refreshed per LRS call

	// Dual magnitude scales (1 when AutoScale is off).
	lamScale, betaScale, gammaScale float64

	// floorTau is τ = floorSkipTau(LRSDamping), the margin of the
	// resize's floor skip (see floorPinned).
	floorTau float64
}

// NewSolver validates the options against the evaluator's circuit and
// prepares solver state.
func NewSolver(ev *rc.Evaluator, opt Options) (*Solver, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	g := ev.Graph()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Solver{
		ev:          ev,
		opt:         opt,
		workers:     workers,
		lambda:      make([]float64, g.NumNodes()),
		rup:         make([]float64, g.NumNodes()),
		rEff:        make([]float64, g.NumNodes()),
		xBound:      math.NaN(),
		pBound:      math.NaN(),
		shardMax:    make([]float64, workers),
		normScratch: make([]float64, g.NumNodes()),
		floorTau:    floorSkipTau(opt.LRSDamping),
	}
	for i := 0; i < g.NumNodes(); i++ {
		if c := g.Comp(i); c.Kind.Sizable() {
			// The evaluator's topology holds tech.RC·r̂ᵢ per node — the base
			// technology value for a plain evaluator (bit-identical to
			// computing it here) and the corner/Monte-Carlo value for a
			// perturbed replica (rc.Perturb), so the Theorem-5 resize runs
			// under the same technology the evaluator times.
			s.rEff[i] = ev.RCConst(i)
			s.sizable = append(s.sizable, int32(i))
		}
	}
	if opt.Incremental {
		s.active = make([]int32, 0, len(s.sizable))
		s.inActive = make([]bool, g.NumNodes())
		s.movedEval = make([][]int32, workers)
		s.movedAct = make([][]int32, workers)
	}
	if opt.NoiseBound > 0 {
		off := ev.Couplings().ConstantOffset()
		xb := opt.NoiseBound - off
		if xb <= 0 {
			return nil, fmt.Errorf("core: noise bound %g fF is below the constant coupling offset %g fF (infeasible)", opt.NoiseBound, off)
		}
		s.xBound = xb
	}
	if opt.PowerCapBound > 0 {
		s.pBound = opt.PowerCapBound
	}
	if len(opt.PerNetNoiseBounds) > 0 {
		nn := g.NumNodes()
		s.vBound = make([]float64, nn)
		s.gammaV = make([]float64, nn)
		s.denV = make([]float64, nn)
		for i := range s.vBound {
			s.vBound[i] = math.NaN()
		}
		for v, xb := range opt.PerNetNoiseBounds {
			if v < 0 || v >= nn || g.Comp(v).Kind != circuit.Wire {
				return nil, fmt.Errorf("core: per-net bound on node %d, which is not a wire", v)
			}
			if len(ev.Couplings().Neighbors(v)) == 0 {
				return nil, fmt.Errorf("core: per-net bound on wire %d, which has no coupling pairs", v)
			}
			if xb <= 0 || math.IsNaN(xb) {
				// NaN would both pass a plain <= 0 check and poison the γᵥ
				// violation terms; reject it with the other bad bounds.
				return nil, fmt.Errorf("core: per-net bound on wire %d must be positive, got %g", v, xb)
			}
			s.vBound[v] = xb
		}
	}
	s.lamScale, s.betaScale, s.gammaScale = 1, 1, 1
	if opt.AutoScale {
		sum := 0.0
		for i := 0; i < g.NumNodes(); i++ {
			if c := g.Comp(i); c.Kind.Sizable() {
				sum += c.AreaCoeff * math.Sqrt(c.Lo*c.Hi)
			}
		}
		if sum > 0 {
			// The natural total timing flow is S/A0; spread it over the
			// sink edges so each edge's seed and step have per-edge scale.
			s.lamScale = sum / (opt.A0 * float64(len(g.In(g.SinkID()))))
			if !math.IsNaN(s.pBound) {
				s.betaScale = sum / s.pBound
			}
			if !math.IsNaN(s.xBound) {
				s.gammaScale = sum / s.xBound
			}
		}
	}
	// Spawn the pool and touch the caller's evaluator only once the
	// options are known-good, so error returns leave no goroutines behind
	// and no Runner installed. A single-worker solver installs no Runner
	// at all: the evaluator then runs its plain serial reference loops,
	// which skip the levelized schedule's bucket indirection and per-level
	// barriers yet are bit-identical to it by construction (and clears any
	// Runner a previous solver left on the evaluator). The Runner stays
	// valid after Close: a closed pool degrades to inline execution, which
	// is bit-identical too.
	s.pool = newPool(workers)
	if s.pool.parallel() {
		ev.SetRunner(s.pool.rcRunner())
		s.cleanup = runtime.AddCleanup(s, func(p *pool) { p.close() }, s.pool)
	} else {
		ev.SetRunner(nil)
	}
	return s, nil
}

// Bounds returns the derived internal bounds (X′, P′); NaN means the
// corresponding constraint is disabled.
func (s *Solver) Bounds() (xPrime, pPrime float64) { return s.xBound, s.pBound }

// Workers returns the resolved parallel width the solver runs with.
func (s *Solver) Workers() int { return s.workers }

// Close releases the solver's worker goroutines. Solvers created with
// Workers == 1 own no goroutines and Close is a no-op. Calling Close is
// optional — an unreferenced Solver's workers are reclaimed by the
// runtime — but deterministic release keeps goroutine counts flat in
// batch sweeps. The solver keeps working after Close, falling back to
// serial execution.
func (s *Solver) Close() {
	if s.pool.parallel() {
		s.cleanup.Stop()
		s.pool.close()
	}
}

// LRS solves the Lagrangian relaxation subproblem LRS₂ for the current
// multipliers (Figure 8) and returns the number of sweeps used. The
// evaluator's sizes hold the minimizer afterwards, with derived state
// recomputed (always by a final full pass, so the values the dual and the
// reported metrics read never ride on incremental bookkeeping). With
// Options.Incremental the sweeps run the dirty-cone/active-set engine
// (lrsActiveSet); otherwise — or after the cutover hysteresis tripped for
// this Run — every sweep runs the paper's full passes. At ActiveSetTol = 0
// the two paths are bit-identical, so the hysteresis revert never changes
// a result.
func (s *Solver) LRS() int {
	if s.ls != nil {
		return s.lrsLockstep()
	}
	if s.opt.Incremental && !s.incReverted {
		return s.lrsActiveSet()
	}
	return s.lrsFull()
}

// HysteresisTrips returns how many Runs the cutover hysteresis has tripped
// in so far: solves where Options.CutoverHysteresis consecutive sweeps
// degraded past the coneWorthwhile cutover and the remainder ran the
// full-pass path.
func (s *Solver) HysteresisTrips() int64 { return s.hystTrips }

// RevertedSweeps returns the total number of LRS sweeps executed on the
// full-pass path because the hysteresis had tripped (Incremental solves
// only). The work-accounting benchmarks subtract these from the full-pass
// counters to reconstruct the deliberate trailing passes.
func (s *Solver) RevertedSweeps() int64 { return s.revertedSweeps }

// lrsPrelude computes the effective scalar multipliers for a sweep
// sequence and refreshes the per-net crosstalk denominators, which stay
// frozen for the whole LRS call.
func (s *Solver) lrsPrelude() (beta, gamma float64) {
	ev := s.ev
	beta, gamma = s.mult.Beta, s.mult.Gamma
	if math.IsNaN(s.pBound) {
		beta = 0
	}
	if math.IsNaN(s.xBound) {
		gamma = 0
	}
	if s.gammaV != nil {
		// Per-net extension: the derivative of Σᵥ γᵥ·Nᵥ(x) with respect to
		// xᵢ is Σ_{(i,j)} (γᵢ+γⱼ)·wᵢⱼ·ĉᵢⱼ; γ is fixed for the whole LRS
		// call, so refresh the per-node sums once, gathered per node.
		s.pool.run(0, ev.Graph().NumNodes(), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ids, ws := ev.NbrEntries(i)
				gi := s.gammaV[i]
				sum := 0.0
				for k, j := range ids {
					if gsum := gi + s.gammaV[j]; gsum != 0 {
						sum += gsum * ws[k]
					}
				}
				s.denV[i] = sum
			}
		})
	}
	return beta, gamma
}

// lrsFull is the paper-faithful LRS loop: every sweep pays a full
// Recompute and a full UpstreamResistance (the Incremental=false escape
// hatch, the post-hysteresis schedule, and the oracle the active-set path
// is pinned to).
func (s *Solver) lrsFull() int {
	ev := s.ev
	g := ev.Graph()
	// With Incremental requested, this loop only ever runs because the
	// cutover hysteresis reverted the solve: charge its sweeps to the
	// reverted counter so work accounting can reconstruct the deliberate
	// trailing passes.
	reverted := s.opt.Incremental && s.incReverted
	if !s.opt.WarmStart {
		// S1: start from the lower bounds.
		for i := 1; i < g.NumNodes()-1; i++ {
			if c := g.Comp(i); c.Kind.Sizable() {
				ev.X[i] = c.Lo
			}
		}
	}
	beta, gamma := s.lrsPrelude()
	sweeps := 0
	for sweeps < s.opt.LRSMaxSweeps {
		sweeps++
		if reverted {
			s.revertedSweeps++
		}
		// S2: downstream capacitances; S3: upstream resistances.
		ev.Recompute()
		ev.UpstreamResistance(s.lambda, s.rup)
		// S4/S5: resize every component, repeat until no improvement.
		if s.resizeFull(beta, gamma) < s.opt.LRSTol {
			break
		}
	}
	ev.Recompute()
	return sweeps
}

// resizeFull runs one Jacobi resize sweep (S4) over every component,
// sharded on the pool, and returns the largest relative size change. The
// sweep reads only state frozen by S2/S3 plus each node's own size, so the
// shards are independent and the max-reduction exact.
func (s *Solver) resizeFull(beta, gamma float64) float64 {
	g := s.ev.Graph()
	shards := s.pool.run(1, g.NumNodes()-1, func(shard, lo, hi int) {
		s.shardMax[shard] = s.resizeRange(beta, gamma, lo, hi)
	})
	maxRel := 0.0
	for sh := 0; sh < shards; sh++ {
		if s.shardMax[sh] > maxRel {
			maxRel = s.shardMax[sh]
		}
	}
	return maxRel
}

// lrsActiveSet is the incremental LRS loop. Sweep 1 is full — the
// multipliers moved since the last call, so every upstream resistance and
// every resize input may have changed — but from sweep 2 on the evaluator
// refreshes only the cones of the sizes that moved, and the resize runs
// only over the active set: nodes that moved beyond ActiveSetTol in the
// previous sweep plus nodes whose Theorem-5 inputs (C′, coupling sum,
// upstream resistance) the refresh actually changed. At ActiveSetTol = 0
// a node is dropped only at a bitwise fixed point with bitwise-unchanged
// inputs, where re-running the resize body reproduces the same size
// exactly — so sweep counts, every size, and the break decision match
// lrsFull bit for bit.
func (s *Solver) lrsActiveSet() int {
	ev := s.ev
	g := ev.Graph()
	if !s.opt.WarmStart {
		// S1: start from the lower bounds, recording the real moves so the
		// first incremental refresh sees them.
		for _, ii := range s.sizable {
			i := int(ii)
			if c := g.Comp(i); ev.X[i] != c.Lo {
				ev.X[i] = c.Lo
				ev.MarkDirty(i)
			}
		}
	}
	beta, gamma := s.lrsPrelude()
	sweeps := 0
	for sweeps < s.opt.LRSMaxSweeps {
		sweeps++
		if s.incReverted {
			// The cutover hysteresis tripped mid-call: finish this LRS on
			// the full-pass schedule. A degraded active-set sweep already
			// runs the identical full refreshes and resizes every sizable
			// node, so dropping the bookkeeping changes scheduling only —
			// never a bit.
			s.revertedSweeps++
			ev.Recompute()
			ev.UpstreamResistance(s.lambda, s.rup)
			if s.resizeFull(beta, gamma) < s.opt.LRSTol {
				break
			}
			continue
		}
		// S2/S3: refresh exactly what the recorded moves can reach.
		cut0 := ev.Stats().CutoverRecomputes
		chgLoads, coneLoads := ev.RecomputeIncremental()
		if ev.Stats().CutoverRecomputes != cut0 {
			// A cutover hit (the pre-first-pass fallback is excluded by the
			// counter split): extend the streak and give up on bookkeeping
			// for the rest of this Run once it reaches K.
			s.degradeStreak++
			if s.degradeStreak >= s.opt.CutoverHysteresis && s.opt.CutoverHysteresis > 0 {
				s.incReverted = true
				s.hystTrips++
			}
		} else if coneLoads {
			s.degradeStreak = 0
		}
		if sweeps == 1 {
			ev.UpstreamResistance(s.lambda, s.rup)
			s.active = append(s.active[:0], s.sizable...)
		} else if chgUp, coneUp := ev.UpstreamResistanceIncremental(s.lambda, s.rup); coneLoads && coneUp {
			s.buildActive(chgLoads, chgUp)
		} else {
			// A refresh degraded to a full pass, so the exact change feed
			// is unknown: over-activate. Nodes whose inputs did not move
			// re-derive their size bit-exactly, so this only costs work,
			// never bits.
			s.active = append(s.active[:0], s.sizable...)
		}
		if len(s.active) == 0 {
			// Every node is at a fixed point with unchanged inputs: a full
			// sweep would measure maxRel = 0 and stop here too.
			break
		}
		// S4/S5 over the active set only.
		if s.resizeActiveSet(beta, gamma) < s.opt.LRSTol {
			break
		}
	}
	ev.Recompute()
	return sweeps
}

// buildActive assembles the next sweep's active set: last sweep's
// beyond-tolerance movers first (in shard order), then the nodes whose
// resize inputs the incremental refresh changed. Duplicates and
// non-sizable entries in the change feeds are filtered here; the bitmap
// is left all-false again so stale bits can never mask a reactivation.
func (s *Solver) buildActive(chgLoads, chgUp []int32) {
	g := s.ev.Graph()
	s.active = s.active[:0]
	add := func(n int32) {
		if !s.inActive[n] && g.Comp(int(n)).Kind.Sizable() {
			s.inActive[n] = true
			s.active = append(s.active, n)
		}
	}
	for _, buf := range s.movedAct {
		for _, n := range buf {
			add(n)
		}
	}
	for _, n := range chgLoads {
		add(n)
	}
	for _, n := range chgUp {
		add(n)
	}
	for _, n := range s.active {
		s.inActive[n] = false
	}
}

// resizeActiveSet runs one Jacobi resize sweep over the active list,
// sharded on the pool, and returns the largest relative size change. The
// per-shard moved buffers are folded serially in shard order, so the
// dirty-mark order — and with it every downstream walk — is deterministic
// at every Workers width.
func (s *Solver) resizeActiveSet(beta, gamma float64) float64 {
	ev := s.ev
	for i := range s.movedEval {
		s.movedEval[i] = s.movedEval[i][:0]
		s.movedAct[i] = s.movedAct[i][:0]
	}
	active := s.active
	shards := s.pool.run(0, len(active), func(shard, lo, hi int) {
		s.shardMax[shard] = s.resizeList(beta, gamma, active[lo:hi], shard)
	})
	maxRel := 0.0
	for sh := 0; sh < shards; sh++ {
		if s.shardMax[sh] > maxRel {
			maxRel = s.shardMax[sh]
		}
	}
	for sh := 0; sh < shards; sh++ {
		for _, n := range s.movedEval[sh] {
			ev.MarkDirty(int(n))
		}
	}
	return maxRel
}

// resizeList applies resizeNode to the listed nodes, filling the shard's
// moved buffers, and returns the largest relative change in the list.
func (s *Solver) resizeList(beta, gamma float64, nodes []int32, shard int) float64 {
	maxRel := 0.0
	for _, ii := range nodes {
		rel, moved := s.resizeNode(beta, gamma, int(ii))
		if moved {
			s.movedEval[shard] = append(s.movedEval[shard], ii)
		}
		if rel > s.opt.ActiveSetTol {
			s.movedAct[shard] = append(s.movedAct[shard], ii)
		}
		if rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}

// resizeRange applies Theorem 5's closed-form optimal resize to nodes
// [lo, hi) and returns the largest relative size change in the range. Safe
// on disjoint ranges concurrently: every input (λ, R, C′, the coupling
// sums) is frozen for the sweep and each node writes only its own xᵢ.
func (s *Solver) resizeRange(beta, gamma float64, lo, hi int) float64 {
	g := s.ev.Graph()
	maxRel := 0.0
	for i := lo; i < hi; i++ {
		if !g.Comp(i).Kind.Sizable() {
			continue
		}
		rel, _ := s.resizeNode(beta, gamma, i)
		if rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}

// resizeNode applies Theorem 5's closed-form optimal resize to the sizable
// node i, returning the relative size change and whether the stored size
// changed at all (bitwise). The single shared body is what makes the full
// and active-set sweeps bit-identical.
func (s *Solver) resizeNode(beta, gamma float64, i int) (rel float64, moved bool) {
	ev := s.ev
	c := ev.Graph().Comp(i)
	num := s.lambda[i] * s.rEff[i] * (ev.CPr[i] + nbr(ev, i))
	den := c.AreaCoeff + (beta+s.rup[i])*c.CUnit
	if ev.CHat != nil {
		den += gamma * ev.CHat[i]
	}
	if s.denV != nil {
		den += s.denV[i]
	}
	var opt float64
	switch {
	case den <= 0 && num > 0:
		opt = c.Hi
	case num <= 0:
		opt = c.Lo
	default:
		opt = math.Sqrt(num / den)
	}
	// Damped update in log space; same fixed point as the pure
	// xᵢ ← optᵢ assignment, but immune to Jacobi oscillation.
	x := ev.X[i]
	switch w := s.opt.LRSDamping; {
	case w == 1:
		x = opt
	case floorPinned(x, opt, c.Lo, s.floorTau):
		return 0, false
	default:
		x = math.Exp((1-w)*math.Log(x) + w*math.Log(math.Max(opt, 1e-300)))
	}
	if x < c.Lo {
		x = c.Lo
	} else if x > c.Hi {
		x = c.Hi
	}
	rel = math.Abs(x-ev.X[i]) / math.Max(ev.X[i], 1e-12)
	moved = x != ev.X[i]
	ev.X[i] = x
	return rel, moved
}

// floorPinned reports whether the damped update of a size x with floor lo
// toward the optimum opt is sure to clamp back to lo, so resizeNode can
// skip its two logs and exp: x sits at lo and the optimum the update reads,
// max(opt, 1e-300), is below lo·τ, τ = floorSkipTau(ω). Most of an area
// optimum's gates and wires sit at minimum size, so this is the common
// case. The skip is bit-exact, not approximate (see "The floor skip" in
// the package documentation for the margin argument).
func floorPinned(x, opt, lo, tau float64) bool {
	return x == lo && max(opt, 1e-300) < lo*tau
}

// floorSkipTau returns τ = (1−10⁻⁹)^(1/ω), the margin of the floor skip at
// damping ω < 1. For ω below about 1.3·10⁻¹², τ underflows to 0 and the
// skip never fires.
func floorSkipTau(w float64) float64 {
	return math.Pow(1-1e-9, 1/w)
}

func nbr(ev *rc.Evaluator, i int) float64 {
	if ev.CNbr == nil {
		return 0
	}
	return ev.CNbr[i]
}

// dual evaluates the Lagrangian L(x, a) at the current LRS minimizer,
// including the −A0·λ_m constant the argmin drops:
//
//	L = Σαᵢxᵢ + Σλᵢ·Dᵢ − A0·λ_m + β·(Σcᵢ − P′) + γ·(noise − X′)
//	  + Σᵥ γᵥ·(Nᵥ − X′ᵥ).
func (s *Solver) dual(area, powerViol, noiseViol float64) float64 {
	ev := s.ev
	g := ev.Graph()
	nn := g.NumNodes()
	// The λᵢ·Dᵢ terms are gathered in parallel and folded serially in node
	// order — the identical products, summed in the identical order, as
	// the old serial loop, so the dual is bit-identical at every Workers
	// width. normScratch is free here: its other users (perNetPass,
	// delayGradNormSq) run strictly after dual within an iteration and
	// write every entry they read.
	s.pool.run(1, nn-1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.normScratch[i] = s.lambda[i] * ev.D[i]
		}
	})
	d := area
	for i := 1; i < nn-1; i++ {
		d += s.normScratch[i]
	}
	d -= s.opt.A0 * s.mult.SinkFlow()
	if !math.IsNaN(s.pBound) {
		d += s.mult.Beta * powerViol
	}
	if !math.IsNaN(s.xBound) {
		d += s.mult.Gamma * noiseViol
	}
	if s.gammaV != nil {
		for v, gv := range s.gammaV {
			if gv > 0 {
				d += gv * (s.perNetNoise(v) - s.vBound[v])
			}
		}
	}
	return d
}

// perNetNoise returns Nᵥ(x) = Σ_{j∈N(v)} wᵥⱼ·ĉᵥⱼ(x_v+x_j) for wire v,
// assembled from the evaluator's per-node coupling sums.
func (s *Solver) perNetNoise(v int) float64 {
	return s.ev.CHat[v]*s.ev.X[v] + s.ev.CNbr[v]
}

// delayGradNormSq computes the active normalized delay-subgradient norm
// with the per-node squared terms filled in parallel and folded serially
// in node order — the same total for every Workers setting.
func (s *Solver) delayGradNormSq() float64 {
	nn := s.ev.Graph().NumNodes()
	s.pool.run(1, nn, func(_, lo, hi int) {
		s.mult.DelayGradFillRange(s.ev.A, s.ev.D, s.opt.A0, s.normScratch, lo, hi)
	})
	return lagrange.DelayGradNormSqFrom(s.normScratch[1:nn])
}

// stepDelay shards the A4 edge-multiplier update by head node; each node
// owns its in-edge multipliers, so disjoint ranges never contend.
func (s *Solver) stepDelay(rho float64, relative bool) {
	nn := s.ev.Graph().NumNodes()
	s.pool.run(1, nn, func(_, lo, hi int) {
		s.mult.StepDelayRange(s.ev.A, s.ev.D, s.opt.A0, rho, relative, lo, hi)
	})
}

// perNetPass returns the largest relative per-net violation and, when
// stepping, also updates every γᵥ with the trust-region rule and
// accumulates the active normalized subgradient norm. Each wire's
// violation and step depend only on its own bound, multiplier, and the
// frozen evaluator state, so the pass shards cleanly; the squared terms
// land in per-node scratch and fold in index order, making normSq
// independent of the sharding.
func (s *Solver) perNetPass(rho float64, step bool) (maxRel, normSq float64) {
	if s.gammaV == nil {
		return 0, 0
	}
	shards := s.pool.run(0, len(s.gammaV), func(shard, lo, hi int) {
		mr := 0.0
		for v := lo; v < hi; v++ {
			xb := s.vBound[v]
			if math.IsNaN(xb) {
				s.normScratch[v] = 0
				continue
			}
			viol := s.perNetNoise(v) - xb
			if rel := viol / xb; rel > mr {
				mr = rel
			}
			if viol > 0 || s.gammaV[v] > 0 {
				n := viol / xb
				s.normScratch[v] = n * n
			} else {
				s.normScratch[v] = 0
			}
			if step {
				s.gammaV[v] = lagrange.StepScalar(s.gammaV[v], viol, rho/xb, xb, s.mult.Trust, true)
			}
		}
		s.shardMax[shard] = mr
	})
	for sh := 0; sh < shards; sh++ {
		if s.shardMax[sh] > maxRel {
			maxRel = s.shardMax[sh]
		}
	}
	for _, t := range s.normScratch[:len(s.gammaV)] {
		normSq += t
	}
	return maxRel, normSq
}

// RunFrom seeds the evaluator with the sizes x — through rc.SetSizes, so
// the incremental engine's dirty tracking sees exactly the entries that
// differ from the current state — and then executes Run. x must have one
// entry per circuit node (non-sizable entries are ignored); out-of-bound
// sizes clamp, non-finite ones are rejected before anything changes.
//
// This is the warm-start entry for sweep workloads: with
// Options.WarmStart the LRS sweeps start from the seed, so solving from a
// near-solution (a neighbouring bounds-grid cell, an ECO) becomes an
// incremental perturbation the dirty-cone engine refreshes instead of a
// cold solve. Without WarmStart the paper's S1 reset makes Run's
// trajectory independent of the evaluator's sizes, and RunFrom is
// bit-identical to Run from any seed.
func (s *Solver) RunFrom(x []float64) (*Result, error) {
	if err := s.ev.SetSizes(x); err != nil {
		return nil, err
	}
	return s.Run()
}

// DualState is a snapshot of the multiplier state a Run ended with: the
// per-edge timing multipliers, β, γ, and any per-net γᵥ. It is the dual
// half of a warm start — opaque, immutable, and independent of the solver
// that produced it, so a sweep can hand one cell's final ascent point to
// its neighbour (see RunFromDual).
type DualState struct {
	edge        [][]float64
	beta, gamma float64
	gammaV      []float64
}

// DualState snapshots the solver's current multipliers, or nil before the
// first Run.
func (s *Solver) DualState() *DualState {
	if s.mult == nil {
		return nil
	}
	d := &DualState{beta: s.mult.Beta, gamma: s.mult.Gamma}
	d.edge = make([][]float64, len(s.mult.Edge))
	for i, e := range s.mult.Edge {
		d.edge[i] = append([]float64(nil), e...)
	}
	if s.gammaV != nil {
		d.gammaV = append([]float64(nil), s.gammaV...)
	}
	return d
}

// RunFromDual is RunFrom with the dual half of the warm start: the
// multipliers begin at the snapshot instead of the A1 uniform seed, so a
// solve whose bounds sit near the snapshot's starts its ascent beside the
// dual optimum and can certify convergence in a handful of iterations —
// the OGWS trajectory is driven by the multipliers, and sizes alone
// cannot shortcut it. A nil dual degrades to RunFrom. The snapshot must
// come from a solver over the same circuit graph.
func (s *Solver) RunFromDual(x []float64, dual *DualState) (*Result, error) {
	if dual != nil {
		if err := s.checkDual(dual); err != nil {
			return nil, err
		}
		s.pendingDual = dual
	}
	res, err := s.RunFrom(x)
	s.pendingDual = nil
	return res, err
}

func (s *Solver) checkDual(d *DualState) error {
	g := s.ev.Graph()
	if len(d.edge) != g.NumNodes() {
		return fmt.Errorf("core: dual state has %d nodes, want %d", len(d.edge), g.NumNodes())
	}
	for i, e := range d.edge {
		if len(e) != len(g.In(i)) {
			return fmt.Errorf("core: dual state node %d has %d edge multipliers, want %d", i, len(e), len(g.In(i)))
		}
	}
	return nil
}

// Run executes Algorithm OGWS until the duality gap is below Epsilon or
// MaxIterations is reached.
func (s *Solver) Run() (*Result, error) {
	ev := s.ev
	g := ev.Graph()

	// Each Run decides afresh whether the incremental bookkeeping pays:
	// the cutover streak and the revert are per-solve state.
	s.degradeStreak, s.incReverted = 0, false

	if d := s.pendingDual; d != nil {
		// Warm dual start (RunFromDual): begin the ascent at the snapshot.
		// The snapshot was projected onto the flow-conservation cone by the
		// Run that produced it, so A1's projection is already satisfied.
		if s.mult == nil {
			s.mult = lagrange.New(g, 0)
		}
		for i := range s.mult.Edge {
			copy(s.mult.Edge[i], d.edge[i])
		}
		s.mult.Beta, s.mult.Gamma = d.beta, d.gamma
		for v := range s.gammaV {
			if d.gammaV != nil && v < len(d.gammaV) {
				s.gammaV[v] = d.gammaV[v]
			} else {
				s.gammaV[v] = 0
			}
		}
		s.pendingDual = nil // one-shot: a plain re-Run replays A1 as always
	} else {
		// A1: initial multipliers in the optimality condition (project the
		// uniform seed onto the flow-conservation cone).
		s.mult = lagrange.New(g, s.opt.InitMultiplier*s.lamScale)
		s.mult.ProjectFlow()
		s.mult.Beta = s.opt.InitBeta * s.betaScale
		s.mult.Gamma = s.opt.InitGamma * s.gammaScale
		// The per-net γᵥ are multiplier state too: re-seed them so repeated
		// Run calls on one solver replay the exact same trajectory.
		for v := range s.gammaV {
			s.gammaV[v] = 0
		}
	}
	if s.opt.KeepHistory {
		s.history = s.history[:0]
	}

	res := &Result{}
	sweepsTotal := 0
	converged := false
	k := 0
	bestFeasible := math.Inf(1)
	// Σαᵢ·Lᵢ bounds the objective from below regardless of constraints —
	// a tight certificate whenever the solution sits near the size floor.
	bestDual := 0.0
	for i := 1; i < g.NumNodes()-1; i++ {
		if c := g.Comp(i); c.Kind.Sizable() {
			bestDual += c.AreaCoeff * c.Lo
		}
	}
	var bestX []float64
	damp := 1.0        // RPROP-style oscillation damping for adaptive steps
	prevFeasible := -1 // -1 unknown, else 0/1
	var area, gap, dual float64
	var prevEval rc.EvalStats
	if s.opt.OnIteration != nil {
		prevEval = ev.Stats()
	}
	for k = 1; k <= s.opt.MaxIterations; k++ {
		if s.opt.Cancel != nil && s.opt.Cancel() {
			return nil, ErrCancelled
		}
		// A2: merged node multipliers.
		s.pool.run(0, g.NumNodes(), func(_, lo, hi int) {
			s.mult.NodeSumsRange(s.lambda, lo, hi)
		})
		// A3: solve the subproblem; arrival times are computed by the
		// evaluator as part of LRS's final Recompute.
		sw := s.LRS()
		sweepsTotal += sw

		area = ev.Area()
		powerViol, noiseViol := 0.0, 0.0
		if !math.IsNaN(s.pBound) {
			powerViol = ev.TotalCap() - s.pBound
		}
		if !math.IsNaN(s.xBound) {
			noiseViol = ev.NoiseLinear() - s.xBound
		}
		dual = s.dual(area, powerViol, noiseViol)
		gap = math.Abs(area-dual) / math.Max(area, 1e-12)

		// Relative primal feasibility: the duality gap alone can dip below
		// ε while a constraint multiplier is still climbing, so "within 1%
		// error" requires both the gap and the violations to be small.
		feas := math.Max(0, ev.MaxArrival()-s.opt.A0) / s.opt.A0
		if !math.IsNaN(s.pBound) {
			feas = math.Max(feas, powerViol/s.pBound)
		}
		if !math.IsNaN(s.xBound) {
			feas = math.Max(feas, noiseViol/s.xBound)
		}
		perNetRel, perNetNormSq := s.perNetPass(0, false)
		feas = math.Max(feas, perNetRel)

		if dual > bestDual {
			bestDual = dual
		}
		if feas <= s.opt.Epsilon && area < bestFeasible {
			bestFeasible = area
			bestX = append(bestX[:0], ev.X...)
		}
		// Detect feasible↔infeasible flapping: the adaptive step is
		// straddling the dual kink, so shrink it geometrically; recover
		// slowly while the state is stable.
		nowFeasible := 0
		if feas <= s.opt.Epsilon {
			nowFeasible = 1
		}
		if prevFeasible >= 0 {
			if nowFeasible != prevFeasible {
				damp *= 0.6
				if damp < 0.01 {
					damp = 0.01
				}
			} else if damp < 1 {
				damp *= 1.1
				if damp > 1 {
					damp = 1
				}
			}
		}
		prevFeasible = nowFeasible

		rho := s.opt.Step(k)
		if s.opt.KeepHistory || s.opt.OnIteration != nil {
			st := IterStats{
				K: k, Rho: rho, Area: area, DelayPs: ev.MaxArrival(),
				PowerCapFF: ev.TotalCap(), NoiseLinFF: ev.NoiseLinear(),
				Dual: dual, Gap: gap, LRSSweeps: sw,
			}
			if s.opt.KeepHistory {
				s.history = append(s.history, st)
			}
			if s.opt.OnIteration != nil {
				cur := ev.Stats()
				s.opt.OnIteration(IterProgress{
					IterStats:      st,
					DelayViolation: math.Max(0, ev.MaxArrival()-s.opt.A0),
					PowerViolation: math.Max(0, powerViol),
					NoiseViolation: math.Max(0, noiseViol),
					Feasibility:    feas,
					Eval:           cur.Sub(prevEval),
				})
				prevEval = cur
			}
		}
		// A7: stop when a certified ε-optimal feasible solution exists —
		// either the current iterate closes the gap (the paper's check,
		// with feasibility required) or the best feasible iterate is
		// within ε of the best dual lower bound.
		if gap <= s.opt.Epsilon && feas <= s.opt.Epsilon {
			converged = true
			break
		}
		if !math.IsInf(bestFeasible, 1) &&
			(bestFeasible-bestDual)/bestFeasible <= s.opt.Epsilon {
			converged = true
			gap = math.Max(0, bestFeasible-bestDual) / bestFeasible
			break
		}
		// A4: subgradient updates. The trust corridor shrinks toward 1 so
		// adaptive steps anneal from global travel to local refinement;
		// Σ log(trustₖ) diverges, so reachability is never lost.
		s.mult.Trust = 1 + 4/math.Pow(float64(k), 0.75)
		if s.opt.Polyak {
			// Adaptive Polyak step in the bound-normalized multiplier
			// space: ρ = θ·(f̂ − D)/‖h‖².
			fHat := bestFeasible
			if math.IsInf(fHat, 1) {
				fHat = area * (1 + feas)
			}
			normSq := s.delayGradNormSq() + perNetNormSq
			if !math.IsNaN(s.pBound) {
				n := powerViol / s.pBound
				if n > 0 || s.mult.Beta > 0 {
					normSq += n * n
				}
			}
			if !math.IsNaN(s.xBound) {
				n := noiseViol / s.xBound
				if n > 0 || s.mult.Gamma > 0 {
					normSq += n * n
				}
			}
			// Floor with the classic diminishing schedule: when no feasible
			// iterate exists yet, the f̂ proxy can sit at the dual value and
			// zero the Polyak numerator, freezing all progress.
			floor := 0.1 * s.opt.Step(k) * s.lamScale * s.opt.A0
			if num := fHat - dual; num > 0 && normSq > 1e-18 {
				rho = math.Max(s.opt.PolyakTheta*num/normSq, floor)
			} else {
				rho = 10 * floor
			}
			rho *= damp
			s.stepDelay(rho/s.opt.A0, true)
			if !math.IsNaN(s.pBound) {
				s.mult.StepBeta(powerViol, rho/s.pBound, s.pBound, true)
			}
			if !math.IsNaN(s.xBound) {
				s.mult.StepGamma(noiseViol, rho/s.xBound, s.xBound, true)
			}
			s.perNetPass(rho, true)
		} else {
			// Classic diminishing schedule, scaled to the dual magnitude.
			s.stepDelay(rho*s.lamScale, s.opt.RelativeViolations)
			if !math.IsNaN(s.pBound) {
				s.mult.StepBeta(powerViol, rho*s.betaScale, s.pBound, s.opt.RelativeViolations)
			}
			if !math.IsNaN(s.xBound) {
				s.mult.StepGamma(noiseViol, rho*s.gammaScale, s.xBound, s.opt.RelativeViolations)
			}
			s.perNetPass(rho*s.lamScale*s.opt.A0, true)
		}
		// A5: project back onto the optimality condition.
		s.mult.ProjectFlow()
	}
	if k > s.opt.MaxIterations {
		k = s.opt.MaxIterations
	}

	// Dual polish: the dual function is concave along the scaling ray
	// t·(λ,β,γ), and every point on it is a valid lower bound; a short
	// grid search often recovers a much tighter certificate than the final
	// subgradient iterate, especially on large circuits where the flow
	// distillation is slow.
	if !converged && !math.IsInf(bestFeasible, 1) {
		if d := s.polishDual(); d > bestDual {
			bestDual = d
		}
		if (bestFeasible-bestDual)/bestFeasible <= s.opt.Epsilon {
			converged = true
		}
		gap = math.Abs(bestFeasible-bestDual) / bestFeasible
		dual = bestDual
	}

	// Report the best feasible iterate when one exists; the last LRS
	// minimizer can sit slightly infeasible even with near-optimal
	// multipliers.
	if bestX != nil {
		if err := ev.SetSizes(bestX); err != nil {
			return nil, err
		}
		ev.Recompute()
		area = ev.Area()
		dual = math.Max(bestDual, dual)
		if area > 0 {
			gap = math.Abs(area-dual) / area
		}
	}

	res.X = append([]float64(nil), ev.X...)
	res.Iterations = k
	res.Converged = converged
	res.Gap = gap
	res.Dual = dual
	res.Area = area
	res.DelayPs = ev.MaxArrival()
	res.PowerCapFF = ev.TotalCap()
	res.NoiseLinFF = ev.NoiseLinear()
	res.NoiseExact = ev.NoiseExact()
	res.DelayViolation = math.Max(0, ev.MaxArrival()-s.opt.A0)
	if !math.IsNaN(s.pBound) {
		res.PowerViolation = math.Max(0, ev.TotalCap()-s.pBound)
	}
	if !math.IsNaN(s.xBound) {
		res.NoiseViolation = math.Max(0, ev.NoiseLinear()-s.xBound)
	}
	if s.gammaV != nil {
		for v := range s.gammaV {
			if xb := s.vBound[v]; !math.IsNaN(xb) {
				if viol := s.perNetNoise(v) - xb; viol > res.PerNetNoiseViolation {
					res.PerNetNoiseViolation = viol
				}
			}
		}
	}
	res.LRSSweepsTotal = sweepsTotal
	res.MemoryBytes = s.memoryBytes()
	res.History = s.history
	return res, nil
}

// polishDual evaluates the dual on a geometric grid of scalings of the
// final multipliers and returns the best lower bound found.
func (s *Solver) polishDual() float64 {
	best := math.Inf(-1)
	for _, t := range []float64{0.25, 0.4, 0.6, 0.8, 1, 1.25, 1.6, 2.2, 3.2, 4.5} {
		s.mult.ScaleAll(t)
		s.mult.NodeSums(s.lambda)
		s.LRS()
		area := s.ev.Area()
		powerViol, noiseViol := 0.0, 0.0
		if !math.IsNaN(s.pBound) {
			powerViol = s.ev.TotalCap() - s.pBound
		}
		if !math.IsNaN(s.xBound) {
			noiseViol = s.ev.NoiseLinear() - s.xBound
		}
		if d := s.dual(area, powerViol, noiseViol); d > best {
			best = d
		}
		s.mult.ScaleAll(1 / t)
	}
	return best
}

func (s *Solver) memoryBytes() int {
	b := s.ev.Graph().MemoryBytes()
	b += s.ev.Couplings().MemoryBytes()
	b += s.ev.MemoryBytes()
	if s.mult != nil {
		b += s.mult.MemoryBytes()
	}
	b += (len(s.lambda) + len(s.rup) + len(s.rEff)) * 8
	b += (len(s.vBound) + len(s.gammaV) + len(s.denV)) * 8
	// shardMax and the active-set scratch (sizable, active, inActive, the
	// per-shard moved buffers) are excluded: their sizes track the Workers
	// and Incremental settings, and the analytic footprint must be
	// identical for every execution mode.
	b += len(s.normScratch) * 8
	return b
}

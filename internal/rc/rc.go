package rc

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/coupling"
)

// Evaluator holds preallocated state for repeated RC evaluation of one
// circuit. Memory is linear in the circuit size; every pass is linear in
// nodes plus edges (the paper's "linear runtime per iteration").
type Evaluator struct {
	g  *circuit.Graph
	cs *coupling.Set

	// Shared topology and this evaluator's stripe set (kernel.go). The
	// exported per-node arrays below alias st's slices; the CSR fields
	// alias t's. NewEvaluator builds a topo of its own; a ScaledReplica
	// shares the structural arrays of its base's.
	t  *topo
	st stripes

	// Coupling gather index in CSR form: for node i, entries
	// nbrOff[i]..nbrOff[i+1] list the coupled neighbour nodes (nbrIdx) and
	// the weighted linear coefficients wᵢⱼ·ĉᵢⱼ (nbrW), folded per node in
	// the coupling set's pair order.
	nbrOff []int32
	nbrIdx []int32
	nbrW   []float64

	// X is the size vector indexed by node (µm); entries for source,
	// drivers and sink are ignored. Mutate via SetSize/SetSizes/
	// SetAllSizes, or assign directly and MarkDirty the changed nodes
	// before the next incremental pass.
	X []float64

	// Incremental (dirty-cone) evaluation state; see incremental.go.
	// recValid flips once a full loads pass has established the derived
	// arrays; arrStale records that a loads refresh has run since the last
	// arrival pass; the dirty sets log size changes for the two pass
	// families (they consume independently — the loads refresh and
	// UpstreamResistance run at different times on the same changes); the
	// frontiers and change logs are reusable walk scratch. All of it is
	// excluded from MemoryBytes: the analytic footprint must be identical
	// for full and incremental passes.
	recValid bool
	arrStale bool
	dirtyRec dirtySet
	dirtyUp  dirtySet
	nbrSet   dirtySet
	frBack   *frontier
	frFwd    *frontier
	chgLoads []int32
	chgUp    []int32
	stats    EvalStats

	// Per-node electrical state: D and A are valid after RecomputeArrivals
	// (or Recompute), everything else after RecomputeLoads.
	Cap  []float64 // cᵢ = ĉᵢxᵢ (+ fᵢ for wires); 0 for drivers
	RPs  []float64 // effective resistance in ps/fF (tech.RC · rᵢ)
	B    []float64 // stage-local load beyond node i's output
	C    []float64 // Elmore downstream load of node i (self + coupling included)
	CPr  []float64 // C′ᵢ: the xᵢ-independent, non-neighbour part of Cᵢ
	D    []float64 // node delay (ps); not refreshed by the loads passes
	A    []float64 // arrival time (ps); not refreshed by the loads passes
	CNbr []float64 // Σ_{j∈N(i)} wᵢⱼ·ĉᵢⱼ·xⱼ (wires)
	CHat []float64 // Σ_{j∈N(i)} wᵢⱼ·ĉᵢⱼ (wires; size-independent)
	CCst []float64 // Σ_{j∈N(i)} wᵢⱼ·c̃ᵢⱼ (wires; size-independent)
}

// NewEvaluator allocates an evaluator for the graph and coupling set (which
// may be empty but not nil-pair-invalid; pass an empty set for uncoupled
// circuits). Sizes start at each component's lower bound.
func NewEvaluator(g *circuit.Graph, cs *coupling.Set) (*Evaluator, error) {
	t, err := buildTopo(g, cs)
	if err != nil {
		return nil, err
	}
	return newEvaluatorOn(t), nil
}

// newEvaluatorOn builds an evaluator over a prebuilt topology with a
// fresh stripe set. The exported per-node arrays alias the stripes and
// the CSR fields alias the topo, so every Evaluator method —
// including the incremental engine and MemoryBytes — works identically
// over a base or a scaled topology.
func newEvaluatorOn(t *topo) *Evaluator {
	g := t.g
	nn := g.NumNodes()
	st := t.carve()
	e := &Evaluator{
		g: g, cs: t.cs,
		t: t, st: st,
		X:    st.x,
		Cap:  st.cap,
		RPs:  st.rps,
		B:    st.b,
		C:    st.c,
		CPr:  st.cpr,
		D:    st.d,
		A:    st.a,
		CNbr: st.cnbr,
		CHat: t.chat,
		CCst: t.ccst,

		nbrOff: t.nbrOff,
		nbrIdx: t.nbrIdx,
		nbrW:   t.nbrW,
	}
	for i := 0; i < nn; i++ {
		if c := g.Comp(i); c.Kind.Sizable() {
			e.X[i] = c.Lo
		}
	}
	// Dirty-cone scratch (incremental.go).
	nLvl := t.numLevels()
	e.dirtyRec.init(nn)
	e.dirtyUp.init(nn)
	e.nbrSet.init(nn)
	e.frBack = newFrontier(nLvl, nn)
	e.frFwd = newFrontier(nLvl, nn)
	return e
}

// Graph returns the underlying circuit graph.
func (e *Evaluator) Graph() *circuit.Graph { return e.g }

// Couplings returns the coupling set.
func (e *Evaluator) Couplings() *coupling.Set { return e.cs }

// NbrEntries returns the coupling gather lists for node i: the coupled
// neighbour node ids and the matching weighted linear coefficients
// wᵢⱼ·ĉᵢⱼ, in the coupling set's pair order. Both are nil for uncoupled
// nodes. The slices alias internal state and must not be modified.
func (e *Evaluator) NbrEntries(i int) ([]int32, []float64) {
	if e.nbrOff == nil {
		return nil, nil
	}
	lo, hi := e.nbrOff[i], e.nbrOff[i+1]
	return e.nbrIdx[lo:hi], e.nbrW[lo:hi]
}

// SetAllSizes assigns every component the size v clamped to its bounds.
// A non-finite v still yields a valid state: ±Inf clamp to the nearest
// bound as usual and NaN falls to each component's lower bound — NaN must
// never reach X, where it would silently poison every derived quantity
// (the same hole SetSizes closes by rejection).
func (e *Evaluator) SetAllSizes(v float64) {
	if math.IsNaN(v) {
		v = math.Inf(-1) // clamps to Lo below
	}
	for i := 0; i < e.g.NumNodes(); i++ {
		c := e.g.Comp(i)
		if !c.Kind.Sizable() {
			continue
		}
		if nv := math.Min(c.Hi, math.Max(c.Lo, v)); nv != e.X[i] {
			e.X[i] = nv
			e.MarkDirty(i)
		}
	}
}

// SetSizes copies the given size vector (indexed by node) clamping each
// component to its bounds. A NaN or infinite entry on a sizable node is
// rejected before any size is modified: NaN propagates through the min/max
// clamp and would silently poison every derived quantity downstream.
func (e *Evaluator) SetSizes(x []float64) error {
	if len(x) != len(e.X) {
		return fmt.Errorf("rc: size vector has %d entries, want %d", len(x), len(e.X))
	}
	for i := 0; i < e.g.NumNodes(); i++ {
		if e.g.Comp(i).Kind.Sizable() && (math.IsNaN(x[i]) || math.IsInf(x[i], 0)) {
			return fmt.Errorf("rc: size for %v node %d is %g", e.g.Comp(i).Kind, i, x[i])
		}
	}
	for i := 0; i < e.g.NumNodes(); i++ {
		c := e.g.Comp(i)
		if !c.Kind.Sizable() {
			continue
		}
		if nv := math.Min(c.Hi, math.Max(c.Lo, x[i])); nv != e.X[i] {
			e.X[i] = nv
			e.MarkDirty(i)
		}
	}
	return nil
}

// electricalRange fills the per-node capacitances and effective resistances
// for nodes [lo, hi); every iteration is independent. The body lives in
// the kernel layer (kernel.go), like every per-node body below.
func (e *Evaluator) electricalRange(lo, hi int) { e.t.kElectrical(&e.st, lo, hi) }

// couplingRange fills the neighbour coupling sums CNbr for nodes [lo, hi).
// Gathered per node from the CSR index: each iteration writes only its own
// CNbr entry, in the same per-node accumulation order as the pair-scatter
// formulation.
func (e *Evaluator) couplingRange(lo, hi int) { e.t.kCoupling(&e.st, lo, hi) }

// loadsNode computes the stage load B and the delay loads C/C′ of node i
// from its fan-out. Every read (Cap of any fan-out, B of wire fan-outs) is
// of a node on a strictly higher level; the accumulation folds in fan-out
// list order, identical for the full pass and the cone walk.
func (e *Evaluator) loadsNode(i int) { e.t.kLoads(&e.st, i) }

// arrivalNode computes node i's Elmore delay and arrival time. Reads only
// arrivals of fan-ins (strictly lower level) and its own RPs/C.
func (e *Evaluator) arrivalNode(i int) { e.t.kArrival(&e.st, i) }

// finishSink defines the sink's arrival as the max over its feeders (0 when
// the sink has no feeders, e.g. on BuildLoose graphs).
func (e *Evaluator) finishSink() { e.t.kFinishSink(&e.st) }

// Recompute refreshes every derived quantity for the current sizes:
// RecomputeLoads, then RecomputeArrivals, each a plain index-order loop.
func (e *Evaluator) Recompute() {
	e.RecomputeLoads()
	e.RecomputeArrivals()
}

// RecomputeLoads refreshes everything the Theorem-5 resize and the
// upstream pass read: capacitances and resistances (a flat range), the
// coupling sums (a flat range), and the stage loads B and delay loads C/C′
// (reverse index order, which is reverse topological). Delays and arrivals
// keep their old values until RecomputeArrivals.
func (e *Evaluator) RecomputeLoads() {
	nn := e.g.NumNodes()
	coupled := e.cs.Len() > 0
	e.electricalRange(1, nn-1)
	if coupled {
		e.couplingRange(0, nn)
	}
	for i := nn - 2; i >= 1; i-- {
		e.loadsNode(i)
	}
	// The loads now reflect the current sizes exactly: pending size
	// changes are consumed, incremental passes become valid, and the
	// arrivals are stale until the next arrival pass.
	e.stats.FullRecomputes++
	e.stats.ElectricalNodes += int64(nn - 2)
	if coupled {
		e.stats.CouplingNodes += int64(nn)
	}
	e.stats.LoadsNodes += int64(nn - 2)
	e.recValid, e.arrStale = true, true
	e.dirtyRec.reset()
}

// RecomputeArrivals refreshes the node delays D, the arrival times A and
// the sink's arrival (index order, which is topological) from the
// resistances and delay loads the last loads refresh left.
func (e *Evaluator) RecomputeArrivals() {
	nn := e.g.NumNodes()
	e.A[0] = 0
	for i := 1; i < nn-1; i++ {
		e.arrivalNode(i)
	}
	e.finishSink()
	e.stats.ArrivalNodes += int64(nn - 2)
	e.arrStale = false
}

// MaxArrival returns the circuit delay: the largest arrival time among
// nodes feeding the sink (the paper's critical-path delay D).
func (e *Evaluator) MaxArrival() float64 { return e.A[e.g.SinkID()] }

// AppendCriticalPath appends to dst the node indices (drivers and
// components) of a path realizing MaxArrival, from a driver to a
// sink-feeding node, and returns the extended slice. On a graph whose sink
// has no predecessors (possible via Builder.BuildLoose; no Build-validated
// circuit produces one) there is no path to realize and dst comes back
// unchanged, matching MaxArrival's defined value of 0 there. It is
// allocation-free once dst has the capacity, so sweep loops can reuse one
// buffer with dst = ev.AppendCriticalPath(dst[:0]).
func (e *Evaluator) AppendCriticalPath(dst []int) []int {
	g := e.g
	sink := g.SinkID()
	if len(g.In(sink)) == 0 {
		return dst
	}
	// Start at the sink feeder with max arrival.
	cur, best := -1, math.Inf(-1)
	for _, j := range g.In(sink) {
		if e.A[j] > best {
			best, cur = e.A[j], int(j)
		}
	}
	if cur < 0 {
		return dst
	}
	start := len(dst)
	for cur > 0 {
		dst = append(dst, cur)
		nxt, bestA := -1, math.Inf(-1)
		for _, j := range g.In(cur) {
			if int(j) == 0 {
				nxt = 0
				break
			}
			if e.A[j] > bestA {
				bestA, nxt = e.A[j], int(j)
			}
		}
		if nxt <= 0 {
			break
		}
		cur = nxt
	}
	rev := dst[start:]
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return dst
}

// Area returns Σ αᵢxᵢ over all components (µm²).
func (e *Evaluator) Area() float64 {
	total := 0.0
	for i := 1; i < e.g.NumNodes()-1; i++ {
		c := e.g.Comp(i)
		if c.Kind.Sizable() {
			total += c.AreaCoeff * e.X[i]
		}
	}
	return total
}

// TotalCap returns Σ cᵢ over all components (fF), the paper's power measure
// before the V²f scaling.
func (e *Evaluator) TotalCap() float64 {
	total := 0.0
	for i := 1; i < e.g.NumNodes()-1; i++ {
		if e.g.Comp(i).Kind.Sizable() {
			total += e.Cap[i]
		}
	}
	return total
}

// NoiseLinear returns the paper's Table-1 noise measure
// Σ wᵢⱼ·ĉᵢⱼ·(xᵢ+xⱼ) in fF.
func (e *Evaluator) NoiseLinear() float64 { return e.cs.TotalLinear(e.X) }

// NoiseExact returns the exact weighted coupling Σ wᵢⱼ·c̃ᵢⱼ(1−x̄)⁻¹ in fF.
func (e *Evaluator) NoiseExact() float64 { return e.cs.TotalExact(e.X) }

// upstreamNode folds node i's weighted upstream resistance from its
// fan-ins. Reads dst only for wire fan-ins, which sit on strictly lower
// levels; the fold runs in fan-in list order, identical for the full pass
// and the cone walk.
func (e *Evaluator) upstreamNode(i int, lambda, dst []float64) float64 {
	return e.t.kUpstream(&e.st, i, lambda, dst)
}

// UpstreamResistance fills dst[i] with the paper's weighted upstream
// resistance Rᵢ = Σ_{k∈upstream(i)} λₖ·rₖ (in ps/fF, multipliers included),
// where λ is the per-node merged multiplier vector and upstream is the
// stage-local set (walks back through wires to the driving gate or driver,
// inclusive). Runs in one forward pass in index order, which is
// topological. Gates accumulate the contributions of all their fan-in
// stages. It charges one full upstream pass to the work counters and
// consumes the pending size changes: dst now reflects the current sizes,
// so a following incremental call starts from a clean slate.
func (e *Evaluator) UpstreamResistance(lambda []float64, dst []float64) {
	nn := e.g.NumNodes()
	e.stats.FullUpstreams++
	e.stats.UpstreamNodes += int64(nn) - 2
	e.dirtyUp.reset()
	for i := 0; i < nn; i++ {
		dst[i] = 0
	}
	for i := 1; i < nn-1; i++ {
		dst[i] = e.upstreamNode(i, lambda, dst)
	}
}

// MemoryBytes returns the analytic footprint of the evaluator's arrays for
// the Figure-10 storage accounting. The dirty-cone scratch (dirty sets,
// frontiers, change logs) is deliberately excluded: the analytic
// footprint must be identical whether a solve runs full or incremental
// passes, exactly as the solver excludes its active-set scratch.
func (e *Evaluator) MemoryBytes() int {
	n := len(e.X)
	arrays := 9
	if e.CNbr != nil {
		arrays += 3
	}
	return arrays*n*8 + len(e.nbrOff)*4 + len(e.nbrIdx)*4 + len(e.nbrW)*8 +
		(len(e.t.lvlOff)+len(e.t.lvlNodes))*4
}

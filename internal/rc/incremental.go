// Incremental (dirty-cone) evaluation.
//
// Late LRS sweeps change only a shrinking fringe of sizes, yet every full
// RecomputeLoads/UpstreamResistance pays the whole circuit. The engine in
// this file re-runs the *same* per-node bodies (electricalRange,
// couplingRange, loadsNode, upstreamNode) only where an input actually
// changed, discovered by walking the cones of the recorded size changes
// over the precomputed level buckets. Both walks are stage-local:
//
//   - stage loads B/C/C′ flow backward: a changed node and the fan-ins
//     that read its capacitance seed a reverse walk that follows B changes
//     through wires (gates decouple stages — a gate's B is read by nobody);
//   - weighted upstream resistances flow forward from the fan-outs of each
//     changed node, following value changes through wires.
//
// Delays and arrivals have no walk: nothing inside an LRS sweep reads
// them, and RecomputeIncremental refreshes them with one full
// RecomputeArrivals.
//
// A node is skipped only when every input its body reads is bitwise
// unchanged, and each body is a pure function of its inputs folded in a
// fixed order, so the incremental passes are bit-identical to the full
// ones — the contract FuzzIncremental, the table tests, and the golden
// suite all enforce with exact == comparisons. Dirty frontiers within one
// level are independent (same argument as the levelized schedule) and run
// through the installed Runner; change detection writes per-node flags and
// all queue pushes happen on the coordinator, so the walk is race-free.
package rc

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// EvalStats counts evaluation work: full and incremental pass invocations
// plus the number of per-node bodies each pass family actually executed.
// The counters are maintained by the scheduling layer (never inside the
// parallel bodies), so keeping them costs nothing per node.
type EvalStats struct {
	// FullRecomputes / IncRecomputes count loads refreshes (RecomputeLoads,
	// the loads half of Recompute, and RecomputeLoadsIncremental) that ran
	// the full circuit versus a dirty cone; likewise for the upstream pair.
	// Arrival passes are counted only by ArrivalNodes.
	FullRecomputes, IncRecomputes int64
	FullUpstreams, IncUpstreams   int64
	// DegradedRecomputes / DegradedUpstreams count the incremental calls
	// that ran a full pass instead (pre-first-pass fallback or the
	// coneWorthwhile cutover). Those passes are counted in FullRecomputes/
	// FullUpstreams too; the split lets work accounting tell a sweep-top
	// degrade apart from a deliberate trailing full pass.
	DegradedRecomputes, DegradedUpstreams int64
	// CutoverRecomputes / CutoverUpstreams count the subset of the degraded
	// calls caused by the coneWorthwhile cutover — the dirty set was too
	// large for cone walking to pay — as opposed to the pre-first-pass
	// fallback. The solver's cutover hysteresis watches exactly this
	// counter: a streak of cutover hits means the circuit (dense coupling,
	// global movement) defeats the bookkeeping, while a pre-first-pass
	// degrade says nothing about it.
	CutoverRecomputes, CutoverUpstreams int64
	// Per-node body executions by pass.
	ElectricalNodes int64
	CouplingNodes   int64
	LoadsNodes      int64
	ArrivalNodes    int64
	UpstreamNodes   int64
}

// NodeVisits is the total number of per-node bodies executed — the
// "evaluation work" measure the sweep benchmarks compare between the full
// and incremental engines.
func (s EvalStats) NodeVisits() int64 {
	return s.ElectricalNodes + s.CouplingNodes + s.LoadsNodes + s.ArrivalNodes + s.UpstreamNodes
}

// Sub returns the counter-wise difference s − prev: the evaluation work
// performed between two Stats snapshots. The progress-streaming layer uses
// it to report per-iteration work deltas without resetting the cumulative
// counters mid-solve.
func (s EvalStats) Sub(prev EvalStats) EvalStats {
	return EvalStats{
		FullRecomputes:     s.FullRecomputes - prev.FullRecomputes,
		IncRecomputes:      s.IncRecomputes - prev.IncRecomputes,
		FullUpstreams:      s.FullUpstreams - prev.FullUpstreams,
		IncUpstreams:       s.IncUpstreams - prev.IncUpstreams,
		DegradedRecomputes: s.DegradedRecomputes - prev.DegradedRecomputes,
		DegradedUpstreams:  s.DegradedUpstreams - prev.DegradedUpstreams,
		CutoverRecomputes:  s.CutoverRecomputes - prev.CutoverRecomputes,
		CutoverUpstreams:   s.CutoverUpstreams - prev.CutoverUpstreams,
		ElectricalNodes:    s.ElectricalNodes - prev.ElectricalNodes,
		CouplingNodes:      s.CouplingNodes - prev.CouplingNodes,
		LoadsNodes:         s.LoadsNodes - prev.LoadsNodes,
		ArrivalNodes:       s.ArrivalNodes - prev.ArrivalNodes,
		UpstreamNodes:      s.UpstreamNodes - prev.UpstreamNodes,
	}
}

// Stats returns the accumulated evaluation-work counters.
func (e *Evaluator) Stats() EvalStats { return e.stats }

// ResetStats zeroes the evaluation-work counters.
func (e *Evaluator) ResetStats() { e.stats = EvalStats{} }

// dirtySet is a deduplicating node set: a membership bitmap plus the
// insertion-ordered list, both reusable across passes without reallocation.
type dirtySet struct {
	in   []bool
	list []int32
}

func (d *dirtySet) init(nn int) { d.in = make([]bool, nn) }

func (d *dirtySet) add(i int32) {
	if !d.in[i] {
		d.in[i] = true
		d.list = append(d.list, i)
	}
}

func (d *dirtySet) reset() {
	for _, i := range d.list {
		d.in[i] = false
	}
	d.list = d.list[:0]
}

// frontier is a reusable level-bucketed work queue for one cone walk.
// push may be called while a walk is in flight, but only from the
// coordinator (the serial phase between level barriers) and only in the
// walk's direction: backward walks push strictly lower levels, forward
// walks strictly higher, so a processed bucket is never revisited.
type frontier struct {
	inQ        []bool
	lvl        [][]int32
	minL, maxL int
}

func newFrontier(nLevels, nn int) *frontier {
	return &frontier{inQ: make([]bool, nn), lvl: make([][]int32, nLevels), minL: nLevels, maxL: -1}
}

func (f *frontier) push(lvl int, i int32) {
	if f.inQ[i] {
		return
	}
	f.inQ[i] = true
	f.lvl[lvl] = append(f.lvl[lvl], i)
	if lvl < f.minL {
		f.minL = lvl
	}
	if lvl > f.maxL {
		f.maxL = lvl
	}
}

// reset clears the bounds after a walk. The walk itself already cleared
// every inQ flag and truncated every visited bucket.
func (f *frontier) reset() {
	f.minL = len(f.lvl)
	f.maxL = -1
}

// Walk ops dispatched by the persistent walk body. Binding the body once
// in NewEvaluator (instead of a fresh closure per level) keeps the
// incremental passes allocation-free: a dirty-cone refresh runs thousands
// of tiny per-level regions per solve, and a heap-allocated closure per
// region dominated the profile before node visits did.
const (
	opElectrical uint8 = iota
	opCoupling
	opLoads
	opUpstream
)

// runWalk executes the selected per-node body over one frontier bucket
// through the installed Runner (inline without one). Every body writes
// only its own node's state — values plus the per-node change flag — so
// any partition is race-free and bit-identical.
func (e *Evaluator) runWalk(op uint8, nodes []int32) {
	e.walkOp, e.walkNodes = op, nodes
	if e.run == nil {
		e.walkBody(0, len(nodes))
	} else {
		e.run(0, len(nodes), e.walkBody)
	}
	e.walkNodes = nil
}

// bindWalkBody builds the one walk closure the evaluator ever allocates.
func (e *Evaluator) bindWalkBody() {
	e.walkBody = func(lo, hi int) {
		nodes := e.walkNodes
		switch e.walkOp {
		case opElectrical:
			for k := lo; k < hi; k++ {
				i := int(nodes[k])
				e.electricalRange(i, i+1)
			}
		case opCoupling:
			for k := lo; k < hi; k++ {
				j := int(nodes[k])
				old := e.CNbr[j]
				e.couplingRange(j, j+1)
				if e.CNbr[j] != old {
					e.chg[j] = chgPr
				}
			}
		case opLoads:
			for k := lo; k < hi; k++ {
				i := int(nodes[k])
				oldB, oldPr := e.B[i], e.CPr[i]
				e.loadsNode(i)
				var f uint8
				if e.B[i] != oldB {
					f |= chgB
				}
				if e.CPr[i] != oldPr {
					f |= chgPr
				}
				e.chg[i] = f
			}
		case opUpstream:
			lambda, dst := e.walkLam, e.walkDst
			for k := lo; k < hi; k++ {
				i := int(nodes[k])
				old := dst[i]
				dst[i] = e.upstreamNode(i, lambda, dst)
				if dst[i] != old {
					e.chg[i] = 1
				}
			}
		}
	}
}

// Change flags recorded by the parallel bodies (own-index writes only) and
// consumed by the coordinator's serial propagation phase.
const (
	chgB  uint8 = 1 << iota // stage load B changed (read by wire fan-ins)
	chgPr                   // C′ or coupling sum changed (a Theorem-5 resize input)
)

// MarkDirty records that node i's size changed since the last evaluation,
// so the next incremental pass re-evaluates its cones. SetSize, SetSizes,
// and SetAllSizes call it automatically; callers that assign X directly
// must mark every changed node themselves (or run a full pass). Marks on
// non-sizable nodes are ignored. Must not be called concurrently with an
// evaluation pass.
func (e *Evaluator) MarkDirty(i int) {
	if !e.g.Comp(i).Kind.Sizable() {
		return
	}
	e.dirtyRec.add(int32(i))
	e.dirtyUp.add(int32(i))
}

// SetSize assigns node i the size v clamped to its bounds and returns the
// stored value, marking the node dirty when the stored size actually
// changes. Non-finite sizes and non-sizable nodes are rejected, matching
// SetSizes.
func (e *Evaluator) SetSize(i int, v float64) (float64, error) {
	c := e.g.Comp(i)
	if !c.Kind.Sizable() {
		return 0, fmt.Errorf("rc: SetSize on non-sizable %v node %d", c.Kind, i)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("rc: size for %v node %d is %g", c.Kind, i, v)
	}
	nv := math.Min(c.Hi, math.Max(c.Lo, v))
	if nv != e.X[i] {
		e.X[i] = nv
		e.MarkDirty(i)
	}
	return nv, nil
}

// coneWorthwhile reports whether a dirty set of the given size should walk
// cones at all. Each walked node costs roughly 2–3× a plain-loop node
// (old-value compares, flag bookkeeping, queue pushes), so once a large
// fraction of the circuit is dirty the full pass is cheaper even before
// the cones expand it further — and the full pass is bit-identical by
// construction, so the cutover is purely a scheduling decision.
func (e *Evaluator) coneWorthwhile(dirty int) bool {
	return dirty*8 <= e.g.NumNodes()-2
}

// RecomputeLoadsIncremental brings everything RecomputeLoads derives up to
// date with the size changes recorded since the last loads refresh,
// touching only the nodes those changes can reach; delays and arrivals are
// left alone. Results are bit-identical to a full RecomputeLoads: skipped
// nodes keep values computed from inputs that are bitwise unchanged, and
// re-run nodes execute the identical per-node bodies. changed lists the
// nodes whose Theorem-5 resize inputs (C′ or the coupling sum CNbr)
// changed — the reactivation feed for the solver's active-set sweep; it
// may contain duplicates, aliases internal state, and is valid until the
// next incremental call.
//
// cone reports whether the feed is exact. When no full pass has
// established the derived state yet, or the dirty set is so large that
// walking cones costs more than the plain loops (coneWorthwhile), the call
// degrades to a full RecomputeLoads — still bit-identical — and returns
// (nil, false): every value may have changed.
func (e *Evaluator) RecomputeLoadsIncremental() (changed []int32, cone bool) {
	if !e.recValid || !e.coneWorthwhile(len(e.dirtyRec.list)) {
		if e.recValid {
			e.stats.CutoverRecomputes++
		}
		e.stats.DegradedRecomputes++
		e.RecomputeLoads()
		return nil, false
	}
	e.stats.IncRecomputes++
	e.chgLoads = e.chgLoads[:0]
	dirty := e.dirtyRec.list
	if len(dirty) == 0 {
		return e.chgLoads, true
	}
	e.arrStale = true
	g := e.g

	// Electrical refresh of the changed nodes (independent bodies).
	e.runWalk(opElectrical, dirty)
	e.stats.ElectricalNodes += int64(len(dirty))

	// Coupling gather: CNbr of every neighbour of a changed node may move.
	// A full re-gather per neighbour keeps the accumulation order — and so
	// the bits — identical to the full pass.
	if e.cs.Len() > 0 {
		for _, d := range dirty {
			lo, hi := e.nbrOff[d], e.nbrOff[d+1]
			for _, j := range e.nbrIdx[lo:hi] {
				e.nbrSet.add(j)
			}
		}
		if nbrs := e.nbrSet.list; len(nbrs) > 0 {
			e.runWalk(opCoupling, nbrs)
			e.stats.CouplingNodes += int64(len(nbrs))
			for _, j := range nbrs {
				if e.chg[j] != 0 {
					e.chg[j] = 0
					e.chgLoads = append(e.chgLoads, j)
					e.frBack.push(g.Level(int(j)), j)
				}
			}
			e.nbrSet.reset()
		}
	}

	// Seed the walk: a changed node re-derives its own loads (wire C
	// carries x-terms); its fan-ins read its capacitance. The source
	// (node 0) stays outside every pass.
	for _, d := range dirty {
		e.frBack.push(g.Level(int(d)), d)
		for _, p := range g.In(int(d)) {
			if p > 0 {
				e.frBack.push(g.Level(int(p)), p)
			}
		}
	}

	// Backward loads walk, levels descending. Pushes go strictly lower, so
	// re-reading minL each iteration picks up the growing frontier.
	for l := e.frBack.maxL; l >= e.frBack.minL; l-- {
		nodes := e.frBack.lvl[l]
		if len(nodes) == 0 {
			continue
		}
		e.runWalk(opLoads, nodes)
		e.stats.LoadsNodes += int64(len(nodes))
		for _, ii := range nodes {
			i := int(ii)
			e.frBack.inQ[i] = false
			f := e.chg[i]
			e.chg[i] = 0
			if f&chgPr != 0 {
				e.chgLoads = append(e.chgLoads, ii)
			}
			if f&chgB != 0 && g.Comp(i).Kind == circuit.Wire {
				for _, p := range g.In(i) {
					if p > 0 {
						e.frBack.push(g.Level(int(p)), p)
					}
				}
			}
		}
		e.frBack.lvl[l] = nodes[:0]
	}
	e.frBack.reset()
	e.dirtyRec.reset()
	return e.chgLoads, true
}

// RecomputeIncremental brings every derived quantity up to date with the
// size changes recorded since the last loads refresh: it runs
// RecomputeLoadsIncremental, then a full RecomputeArrivals when a loads
// refresh has run since the last arrival pass, so a call with nothing to
// do executes no body. changed and cone are RecomputeLoadsIncremental's.
func (e *Evaluator) RecomputeIncremental() (changed []int32, cone bool) {
	changed, cone = e.RecomputeLoadsIncremental()
	if e.arrStale {
		e.RecomputeArrivals()
	}
	return changed, cone
}

// UpstreamResistanceIncremental updates dst for the size changes recorded
// since the last UpstreamResistance-family call, walking only the forward
// cones of the changed nodes. dst must hold the result of the immediately
// preceding upstream pass with the same lambda vector and this evaluator's
// then-current sizes — the walk re-derives exactly the entries the changes
// can reach and leaves every other entry untouched, so the combination is
// bit-identical to a full pass. changed lists the nodes whose dst entry
// moved (same aliasing and duplicate caveats as RecomputeLoadsIncremental);
// cone=false means the call degraded to a full pass — before any full
// evaluation, or past the coneWorthwhile cutover — and changed is nil.
func (e *Evaluator) UpstreamResistanceIncremental(lambda, dst []float64) (changed []int32, cone bool) {
	if !e.recValid || !e.coneWorthwhile(len(e.dirtyUp.list)) {
		if e.recValid {
			e.stats.CutoverUpstreams++
		}
		e.stats.DegradedUpstreams++
		e.UpstreamResistance(lambda, dst)
		return nil, false
	}
	e.stats.IncUpstreams++
	e.chgUp = e.chgUp[:0]
	dirty := e.dirtyUp.list
	if len(dirty) == 0 {
		return e.chgUp, true
	}
	g := e.g
	sink := g.SinkID()
	for _, d := range dirty {
		for _, o := range g.Out(int(d)) {
			if int(o) != sink { // fan-outs read λ_d·r_d
				e.frFwd.push(g.Level(int(o)), o)
			}
		}
	}
	for l := e.frFwd.minL; l <= e.frFwd.maxL; l++ {
		nodes := e.frFwd.lvl[l]
		if len(nodes) == 0 {
			continue
		}
		e.walkLam, e.walkDst = lambda, dst
		e.runWalk(opUpstream, nodes)
		e.stats.UpstreamNodes += int64(len(nodes))
		for _, ii := range nodes {
			i := int(ii)
			e.frFwd.inQ[i] = false
			if e.chg[i] != 0 {
				e.chg[i] = 0
				e.chgUp = append(e.chgUp, ii)
				if g.Comp(i).Kind == circuit.Wire {
					for _, o := range g.Out(i) {
						if int(o) != sink {
							e.frFwd.push(g.Level(int(o)), o)
						}
					}
				}
			}
		}
		e.frFwd.lvl[l] = nodes[:0]
	}
	e.frFwd.reset()
	e.dirtyUp.reset()
	e.walkLam, e.walkDst = nil, nil // never retain caller slices
	return e.chgUp, true
}

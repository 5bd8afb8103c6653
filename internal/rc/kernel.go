// Structure-of-arrays kernel layer.
//
// The evaluator's per-node bodies (electrical values, coupling gather,
// stage loads, arrivals, upstream resistances) are defined here as kernel
// functions over flat float64 stripes: one `topo` holds everything shaped
// by the circuit alone (per-node constants, the coupling CSR, the level
// buckets), one `stripes` holds everything that depends on the current
// sizes. Each Evaluator owns one stripe set over a topo it may share with
// other evaluators of the same circuit (see ScaledReplica).
//
// Every kernel is a literal extraction of the original per-node body: the
// same reads, the same accumulation order, the same arithmetic — so the
// kernel layer is bit-identical to the pre-refactor evaluator by
// construction.
package rc

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/coupling"
	"repro/internal/tech"
)

// topo is the size-independent half of an evaluation: the graph, the
// per-node component constants flattened into arrays (so the hot loops
// read contiguous float64s instead of chasing component structs), the
// coupling gather CSR, and the interior level buckets. One topo is shared
// read-only by every evaluator built over it.
type topo struct {
	g  *circuit.Graph
	cs *coupling.Set

	// Flat per-node component constants.
	kind   []circuit.Kind
	cUnit  []float64 // ĉᵢ (fF/µm)
	fringe []float64 // fᵢ (fF); 0 for non-wires
	load   []float64 // fixed fan-out load (fF)
	rcR    []float64 // tech.RC·r̂ᵢ (ps·µm/fF)

	// Coupling gather CSR and the size-independent coupling sums
	// (see Evaluator.CHat/CCst); nil when the coupling set is empty.
	coupled bool
	nbrOff  []int32
	nbrIdx  []int32
	nbrW    []float64
	chat    []float64
	ccst    []float64

	// Interior level buckets in CSR form: nodes of topological level l
	// occupy lvlNodes[lvlOff[l]:lvlOff[l+1]], ascending. No pass walks
	// them; they stay only because Evaluator.MemoryBytes counts them and
	// the golden fixtures pin that count, so they go with the next change
	// to core.Numerics.
	lvlOff   []int32
	lvlNodes []int32
}

// stripes is the size-dependent half: the size vector and every derived
// per-node array, each one flat contiguous float64s carved from one
// allocation.
type stripes struct {
	x    []float64
	cap  []float64
	rps  []float64
	b    []float64
	c    []float64
	cpr  []float64
	d    []float64
	a    []float64
	cnbr []float64 // nil when uncoupled
}

// carve allocates one evaluator's stripe set as a single slab: eight
// per-node arrays, nine when coupled.
func (t *topo) carve() stripes {
	nn := t.g.NumNodes()
	arrays := 8
	if t.coupled {
		arrays = 9
	}
	slab := make([]float64, arrays*nn)
	cut := func() []float64 {
		s := slab[:nn:nn]
		slab = slab[nn:]
		return s
	}
	st := stripes{
		x: cut(), cap: cut(), rps: cut(), b: cut(),
		c: cut(), cpr: cut(), d: cut(), a: cut(),
	}
	if t.coupled {
		st.cnbr = cut()
	}
	return st
}

// buildTopo validates the coupling set against the graph and assembles the
// shared topology: flattened component constants, the coupling CSR with
// its size-independent sums, and the interior level buckets.
func buildTopo(g *circuit.Graph, cs *coupling.Set) (*topo, error) {
	nn := g.NumNodes()
	t := &topo{
		g: g, cs: cs,
		kind:   make([]circuit.Kind, nn),
		cUnit:  make([]float64, nn),
		fringe: make([]float64, nn),
		load:   make([]float64, nn),
		rcR:    make([]float64, nn),
	}
	for i := 0; i < nn; i++ {
		c := g.Comp(i)
		t.kind[i] = c.Kind
		t.cUnit[i] = c.CUnit
		t.fringe[i] = c.Fringe
		t.load[i] = c.Load
		t.rcR[i] = tech.RC * c.RUnit
	}
	if cs.Len() > 0 {
		t.coupled = true
		t.chat = make([]float64, nn)
		t.ccst = make([]float64, nn)
		counts := make([]int32, nn+1)
		for _, p := range cs.Pairs() {
			for _, v := range [2]int{p.I, p.J} {
				if v >= nn || g.Comp(v).Kind != circuit.Wire {
					return nil, fmt.Errorf("rc: coupling pair (%d,%d) touches non-wire node %d", p.I, p.J, v)
				}
			}
			t.chat[p.I] += p.Weight * p.CHat()
			t.chat[p.J] += p.Weight * p.CHat()
			t.ccst[p.I] += p.Weight * p.CTilde
			t.ccst[p.J] += p.Weight * p.CTilde
			counts[p.I+1]++
			counts[p.J+1]++
		}
		t.nbrOff = counts
		for i := 0; i < nn; i++ {
			t.nbrOff[i+1] += t.nbrOff[i]
		}
		t.nbrIdx = make([]int32, 2*cs.Len())
		t.nbrW = make([]float64, 2*cs.Len())
		fill := make([]int32, nn)
		for _, p := range cs.Pairs() {
			w := p.Weight * p.CHat()
			ki := t.nbrOff[p.I] + fill[p.I]
			t.nbrIdx[ki], t.nbrW[ki] = int32(p.J), w
			fill[p.I]++
			kj := t.nbrOff[p.J] + fill[p.J]
			t.nbrIdx[kj], t.nbrW[kj] = int32(p.I), w
			fill[p.J]++
		}
	}
	// Interior level buckets (see topo.lvlOff).
	nLvl := g.NumLevels()
	t.lvlOff = make([]int32, nLvl+1)
	for i := 1; i < nn-1; i++ {
		t.lvlOff[g.Level(i)+1]++
	}
	for l := 0; l < nLvl; l++ {
		t.lvlOff[l+1] += t.lvlOff[l]
	}
	t.lvlNodes = make([]int32, nn-2)
	fill := make([]int32, nLvl)
	for i := 1; i < nn-1; i++ { // ascending i ⇒ ascending within each bucket
		l := g.Level(i)
		t.lvlNodes[t.lvlOff[l]+fill[l]] = int32(i)
		fill[l]++
	}
	return t, nil
}

// numLevels returns the number of interior level buckets.
func (t *topo) numLevels() int { return len(t.lvlOff) - 1 }

// kElectrical fills the per-node capacitances and effective resistances
// for nodes [lo, hi); every iteration is independent.
func (t *topo) kElectrical(st *stripes, lo, hi int) {
	for i := lo; i < hi; i++ {
		switch t.kind[i] {
		case circuit.Driver:
			st.cap[i] = 0
			st.rps[i] = t.rcR[i]
		case circuit.Gate:
			st.cap[i] = t.cUnit[i] * st.x[i]
			st.rps[i] = t.rcR[i] / st.x[i]
		case circuit.Wire:
			st.cap[i] = t.cUnit[i]*st.x[i] + t.fringe[i]
			st.rps[i] = t.rcR[i] / st.x[i]
		}
	}
}

// kCoupling fills the neighbour coupling sums for nodes [lo, hi), gathered
// per node from the CSR index in the same per-node accumulation order as
// the pair-scatter formulation.
func (t *topo) kCoupling(st *stripes, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		for k := t.nbrOff[i]; k < t.nbrOff[i+1]; k++ {
			sum += t.nbrW[k] * st.x[t.nbrIdx[k]]
		}
		st.cnbr[i] = sum
	}
}

// kLoads computes the stage load B and the delay loads C/C′ of node i from
// its fan-out. Every read (cap of any fan-out, b of wire fan-outs) is of a
// node on a strictly higher level; the accumulation folds in fan-out list
// order, identical for every schedule.
func (t *topo) kLoads(st *stripes, i int) {
	b := t.load[i]
	for _, jj := range t.g.Out(i) {
		j := int(jj)
		switch t.kind[j] {
		case circuit.Wire:
			b += st.cap[j] + st.b[j]
		case circuit.Gate:
			b += st.cap[j]
		case circuit.Sink:
			// Load already accounted in the fixed load.
		}
	}
	st.b[i] = b
	switch t.kind[i] {
	case circuit.Wire:
		ccst, chat, cnbr := 0.0, 0.0, 0.0
		if t.coupled {
			ccst, chat, cnbr = t.ccst[i], t.chat[i], st.cnbr[i]
		}
		st.cpr[i] = b + t.fringe[i]/2 + ccst
		st.c[i] = st.cpr[i] + cnbr + (t.cUnit[i]*st.x[i])/2 + chat*st.x[i]
	default: // gate or driver
		st.cpr[i] = b
		st.c[i] = b
	}
}

// kArrival computes node i's Elmore delay and arrival time. Reads only
// arrivals of fan-ins (strictly lower level) and its own rps/c.
func (t *topo) kArrival(st *stripes, i int) {
	st.d[i] = st.rps[i] * st.c[i]
	a := 0.0
	for _, j := range t.g.In(i) {
		if st.a[j] > a {
			a = st.a[j]
		}
	}
	st.a[i] = a + st.d[i]
}

// kFinishSink defines the sink's arrival as the max over its feeders (0
// when the sink has no feeders) — exact under any grouping.
func (t *topo) kFinishSink(st *stripes) {
	sink := t.g.SinkID()
	maxA := 0.0
	for _, j := range t.g.In(sink) {
		if st.a[j] > maxA {
			maxA = st.a[j]
		}
	}
	st.d[sink] = 0
	st.a[sink] = maxA
}

// kUpstream folds node i's weighted upstream resistance from its fan-ins.
// Reads dst only for wire fan-ins (strictly lower levels); the fold runs
// in fan-in list order, identical for every schedule.
func (t *topo) kUpstream(st *stripes, i int, lambda, dst []float64) float64 {
	sum := 0.0
	for _, jj := range t.g.In(i) {
		j := int(jj)
		if j == 0 {
			continue // source contributes nothing
		}
		switch t.kind[j] {
		case circuit.Driver, circuit.Gate:
			sum += lambda[j] * st.rps[j]
		case circuit.Wire:
			sum += dst[j] + lambda[j]*st.rps[j]
		}
	}
	return sum
}

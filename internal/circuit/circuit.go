// Package circuit defines the circuit-graph representation from Section 2 of
// the paper: a directed acyclic graph H = (V,E) whose nodes are a source ~s
// (index 0), s input drivers (indices 1..s), n sizable components — gates
// and wires — (indices s+1..n+s), and a sink ~t (index n+s+1). Indices are
// topological: if node i drives node j then i < j.
//
// A gate of size x has output resistance RUnit/x and input capacitance
// CUnit·x. A wire of size (width) x has resistance RUnit/x and capacitance
// CUnit·x + Fringe, modelled as a π segment (half the capacitance at each
// end). Input drivers have a fixed resistance and occupy no area; primary
// output loads are fixed capacitances lumped on the components that feed the
// sink.
//
// Gates decouple RC stages: the paper's downstream(i) walks forward through
// wires and stops at (but includes the input capacitance of) gates; its
// upstream(i) walks backward to the gate or driver that drives i's stage.
package circuit

import (
	"fmt"
	"sort"
)

// Kind classifies a node of the circuit graph.
type Kind uint8

const (
	// Source is the artificial node ~s feeding all input drivers.
	Source Kind = iota
	// Driver is an input driver with fixed resistance (the paper's R_D).
	Driver
	// Gate is a sizable logic gate.
	Gate
	// Wire is a sizable interconnect segment.
	Wire
	// Sink is the artificial node ~t collecting all primary outputs.
	Sink
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Source:
		return "source"
	case Driver:
		return "driver"
	case Gate:
		return "gate"
	case Wire:
		return "wire"
	case Sink:
		return "sink"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Sizable reports whether nodes of this kind carry a size variable xᵢ.
func (k Kind) Sizable() bool { return k == Gate || k == Wire }

// Component carries the per-node attributes the paper tags onto the circuit
// graph: type, unit-size resistance r̂ᵢ, unit-size capacitance ĉᵢ, fringing
// capacitance fᵢ, area coefficient αᵢ, and the size bounds Lᵢ ≤ xᵢ ≤ Uᵢ.
type Component struct {
	Kind Kind
	Name string

	// RUnit is the unit-size resistance in Ω·µm for gates and wires
	// (r = RUnit/x); for drivers it is the fixed resistance R_D in Ω.
	RUnit float64
	// CUnit is the capacitance per µm of size in fF/µm (ĉᵢ). Zero for
	// drivers.
	CUnit float64
	// Fringe is the size-independent capacitance fᵢ in fF (wires only).
	Fringe float64
	// Length is the wire length in µm (wires only; informational — RUnit,
	// CUnit and Fringe are already totals for the segment).
	Length float64
	// AreaCoeff is αᵢ, the area in µm² per µm of size.
	AreaCoeff float64
	// Lo and Hi bound the size: Lᵢ ≤ xᵢ ≤ Uᵢ (µm).
	Lo, Hi float64
	// Load is a fixed extra capacitance in fF at this node's output; used
	// for primary-output loads C_L on components feeding the sink.
	Load float64
}

// Graph is an immutable, topologically indexed circuit graph.
type Graph struct {
	s     int // number of input drivers
	n     int // number of sizable components (gates + wires)
	comps []Component
	in    [][]int32
	out   [][]int32
	wires []int32 // node indices of all wires, ascending
	gates []int32 // node indices of all gates, ascending

	// Topological levels (depth buckets): levelOf[i] is the longest-path
	// edge count from a fan-in-free node to i, so every edge (i, j) has
	// levelOf[i] < levelOf[j] and nodes sharing a level are mutually
	// independent. lvlOff/lvlNodes is the bucket CSR: nodes of level l are
	// lvlNodes[lvlOff[l]:lvlOff[l+1]], ascending. Computed once at build
	// time; the evaluator's dirty-cone walks visit their frontiers level by
	// level.
	levelOf  []int32
	lvlOff   []int32
	lvlNodes []int32
}

// NumNodes returns the total node count n+s+2 (including source and sink).
func (g *Graph) NumNodes() int { return len(g.comps) }

// SinkID returns the index n+s+1 of the artificial sink ~t.
func (g *Graph) SinkID() int { return len(g.comps) - 1 }

// Comp returns the component attributes of node i.
func (g *Graph) Comp(i int) *Component { return &g.comps[i] }

// In returns the fan-in node indices of i (the paper's input(i)). The slice
// must not be modified.
func (g *Graph) In(i int) []int32 { return g.in[i] }

// Out returns the fan-out node indices of i (the paper's output(i)). The
// slice must not be modified.
func (g *Graph) Out(i int) []int32 { return g.out[i] }

// Wires returns the node indices of all wires in ascending order. The slice
// must not be modified.
func (g *Graph) Wires() []int32 { return g.wires }

// NumLevels returns the number of topological levels (longest-path depth
// plus one). Level 0 holds the source (and, on Loose graphs, any node with
// no fan-in); on Build-validated graphs the sink sits alone on the top
// level.
func (g *Graph) NumLevels() int { return len(g.lvlOff) - 1 }

// Level returns the topological level of node i: the number of edges on
// the longest path from a fan-in-free node to i. For every edge (i, j),
// Level(i) < Level(j), so processing nodes level by level is a valid
// topological schedule and nodes within one level never depend on each
// other.
func (g *Graph) Level(i int) int { return int(g.levelOf[i]) }

// LevelNodes returns the node indices at level l in ascending order. The
// slice must not be modified.
func (g *Graph) LevelNodes(l int) []int32 {
	return g.lvlNodes[g.lvlOff[l]:g.lvlOff[l+1]]
}

// computeLevels fills the level assignment and bucket CSR. Relies on the
// topological node numbering (every in-neighbour of i has index < i), which
// build establishes before calling.
func (g *Graph) computeLevels() {
	nn := g.NumNodes()
	g.levelOf = make([]int32, nn)
	maxL := int32(0)
	for i := 1; i < nn; i++ {
		d := int32(0)
		for _, j := range g.in[i] {
			if l := g.levelOf[j] + 1; l > d {
				d = l
			}
		}
		g.levelOf[i] = d
		if d > maxL {
			maxL = d
		}
	}
	g.lvlOff = make([]int32, maxL+2)
	for _, l := range g.levelOf {
		g.lvlOff[l+1]++
	}
	for l := int32(0); l <= maxL; l++ {
		g.lvlOff[l+1] += g.lvlOff[l]
	}
	g.lvlNodes = make([]int32, nn)
	fill := make([]int32, maxL+1)
	for i := 0; i < nn; i++ { // ascending i ⇒ ascending within each bucket
		l := g.levelOf[i]
		g.lvlNodes[g.lvlOff[l]+fill[l]] = int32(i)
		fill[l]++
	}
}

// NumEdges returns the number of edges, including source and sink edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, e := range g.out {
		total += len(e)
	}
	return total
}

// Downstream returns the paper's downstream(i): all nodes on paths from i
// forward through wires up to and including the first gate on each path
// (whose input capacitance loads the stage), including i itself. Traversal
// does not continue past gates and never includes source or sink. The result
// is in ascending index order.
func (g *Graph) Downstream(i int) []int {
	seen := map[int]bool{i: true}
	stack := []int{i}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u != i && g.comps[u].Kind == Gate {
			continue // gate input reached: include, do not traverse past
		}
		for _, v := range g.out[u] {
			w := int(v)
			if g.comps[w].Kind == Sink || seen[w] {
				continue
			}
			seen[w] = true
			stack = append(stack, w)
		}
	}
	res := make([]int, 0, len(seen))
	for u := range seen {
		res = append(res, u)
	}
	sort.Ints(res)
	return res
}

// Upstream returns the paper's upstream(i): all nodes except i on the
// backward paths from i through wires up to and including the driving gate
// or input driver of i's stage. Traversal does not continue past gates or
// drivers and never includes the source. The result is in ascending index
// order.
func (g *Graph) Upstream(i int) []int {
	seen := map[int]bool{}
	stack := []int{i}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u != i {
			k := g.comps[u].Kind
			if k == Gate || k == Driver {
				continue // stage boundary: include, do not traverse past
			}
		}
		for _, v := range g.in[u] {
			w := int(v)
			if g.comps[w].Kind == Source || seen[w] {
				continue
			}
			seen[w] = true
			stack = append(stack, w)
		}
	}
	res := make([]int, 0, len(seen))
	for u := range seen {
		res = append(res, u)
	}
	sort.Ints(res)
	return res
}

// Depth returns the maximum number of components on any source-to-sink path
// (excluding source, sink, and drivers) — the logic+interconnect depth.
func (g *Graph) Depth() int {
	depth := make([]int, g.NumNodes())
	maxDepth := 0
	for i := 1; i < g.NumNodes(); i++ {
		d := 0
		for _, j := range g.in[i] {
			if depth[j] > d {
				d = depth[j]
			}
		}
		if g.comps[i].Kind.Sizable() {
			d++
		}
		depth[i] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth
}

// MemoryBytes returns the analytic memory footprint of the graph structure
// itself (component records plus adjacency), used for the Figure-10 storage
// accounting.
func (g *Graph) MemoryBytes() int {
	const compBytes = 8*9 + 16 + 2 // 9 float64s, name header, kind+pad
	b := len(g.comps) * compBytes
	b += g.NumEdges() * 2 * 4 // each edge appears in one in-list and one out-list
	b += (len(g.wires) + len(g.gates)) * 4
	b += (len(g.levelOf) + len(g.lvlOff) + len(g.lvlNodes)) * 4
	return b
}

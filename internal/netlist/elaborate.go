package netlist

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/tech"
)

// ElabOptions controls netlist elaboration.
type ElabOptions struct {
	// Tech supplies electrical and geometric unit values.
	Tech tech.Params
	// WireLength returns the routed length (µm) of the wire from the net
	// driven by gate `from` to gate `to` (-1 for a primary-output
	// connection); branch counts fanout branches of `from` (0-based).
	// If nil, every wire gets defaultWireLength.
	WireLength func(from, to, branch int) float64
}

// defaultWireLength (µm) is every wire's length when
// ElabOptions.WireLength is nil.
const defaultWireLength = 50

// Elaboration maps between the netlist and its circuit graph.
type Elaboration struct {
	Graph *circuit.Graph
	// NodeOf[gi] is the circuit node of netlist gate gi: a driver node for
	// Input pseudo-gates, a gate node otherwise.
	NodeOf []int
	// NetOf[v] is the netlist gate index whose output net the circuit node
	// v carries: the gate itself for gate/driver nodes, the driving net
	// for wire nodes, and -1 for source and sink.
	NetOf []int
}

// Elaborate converts a finalized netlist into a circuit graph following the
// paper's accounting: one wire component per gate-input connection and per
// primary-output connection.
func Elaborate(n *Netlist, opt ElabOptions) (*Elaboration, error) {
	if err := opt.Tech.Validate(); err != nil {
		return nil, err
	}
	length := opt.WireLength
	if length == nil {
		length = func(from, to, branch int) float64 { return defaultWireLength }
	}
	p := opt.Tech
	b := circuit.NewBuilder()
	nodeOf := make([]int, len(n.Gates)) // builder IDs
	for gi, g := range n.Gates {
		if g.Type == Input {
			nodeOf[gi] = b.AddDriver(g.Name, p.DriverResistance)
		} else {
			nodeOf[gi] = b.AddGate(g.Name, p.GateResistance, p.GateCapacitance, p.GateArea, p.MinSize, p.MaxSize)
		}
	}
	branch := make([]int, len(n.Gates))
	type wireRec struct {
		builderID int
		net       int // driving netlist gate
	}
	var wires []wireRec
	addWire := func(from, to int, name string) (int, error) {
		l := length(from, to, branch[from])
		branch[from]++
		if l <= 0 {
			return 0, fmt.Errorf("netlist: non-positive wire length %g for %s", l, name)
		}
		w := b.AddWire(name,
			p.WireResistance*l, p.WireCapacitance*l, p.WireFringe*l, l,
			p.WireArea*l, p.MinSize, p.MaxSize)
		b.Connect(nodeOf[from], w)
		wires = append(wires, wireRec{w, from})
		return w, nil
	}
	for gi, g := range n.Gates {
		for _, f := range g.Fanin {
			w, err := addWire(int(f), gi, fmt.Sprintf("%s->%s", n.Gates[f].Name, g.Name))
			if err != nil {
				return nil, err
			}
			b.Connect(w, nodeOf[gi])
		}
	}
	for _, o := range n.Outputs {
		w, err := addWire(int(o), -1, fmt.Sprintf("%s->out", n.Gates[o].Name))
		if err != nil {
			return nil, err
		}
		b.MarkOutput(w, p.LoadCapacitance)
	}
	g, id, err := b.Build()
	if err != nil {
		return nil, err
	}
	e := &Elaboration{Graph: g, NodeOf: make([]int, len(n.Gates)), NetOf: make([]int, g.NumNodes())}
	for i := range e.NetOf {
		e.NetOf[i] = -1
	}
	for gi := range n.Gates {
		v := id[nodeOf[gi]]
		e.NodeOf[gi] = v
		e.NetOf[v] = gi
	}
	for _, w := range wires {
		e.NetOf[id[w.builderID]] = w.net
	}
	return e, nil
}

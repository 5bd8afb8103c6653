package bench

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/coupling"
	"repro/internal/rc"
)

// Grid builds a deterministic width×layers gate/wire mesh for scaling
// studies: each layer is one rank of width wires feeding width gates
// (every gate fans in from two adjacent wires, so fan-in and fan-out both
// exceed one), with optional coupling pairs between horizontally adjacent
// wires. The depth is Θ(layers) and every topological level holds
// Θ(width) nodes, so the two axes set a mesh's breadth and depth
// independently.
//
// The node count is width·(2·layers+2)+2: width drivers, width wires plus
// width gates per layer, and width output wires. Grid(64, 78, …) is the
// smallest ≥10k-node instance with square-ish aspect.
func Grid(width, layers int, coupled bool) (*circuit.Graph, *coupling.Set, error) {
	if width < 2 || layers < 1 {
		return nil, nil, fmt.Errorf("bench: Grid needs width ≥ 2 and layers ≥ 1, got %d×%d", width, layers)
	}
	b := circuit.NewBuilder()
	prev := make([]int, width)
	for i := 0; i < width; i++ {
		prev[i] = b.AddDriver("D", 80+float64(7*i%40))
	}
	wires := make([][]int, layers) // builder ids, per layer
	for l := 0; l < layers; l++ {
		wires[l] = make([]int, width)
		for i := 0; i < width; i++ {
			w := b.AddWire("w",
				8+float64((l*7+i*3)%13),    // rUnit
				1+0.5*float64((i+l)%4),     // cUnit
				0.05+0.01*float64(i%5),     // fringe
				30+float64((l*11+i*17)%60), // length
				1, 0.1, 10)
			b.Connect(prev[i], w)
			wires[l][i] = w
		}
		for i := 0; i < width; i++ {
			g := b.AddGate("g",
				15+float64((l*5+i*2)%20), // rUnit
				0.4+0.1*float64((l+i)%3), // cUnit
				2+float64((i*3+l)%5),     // areaCoeff
				0.1, 10)
			b.Connect(wires[l][i], g)
			b.Connect(wires[l][(i+1)%width], g)
			prev[i] = g
		}
	}
	for i := 0; i < width; i++ {
		w := b.AddWire("wo", 6, 1, 0.05, 25, 1, 0.1, 10)
		b.Connect(prev[i], w)
		b.MarkOutput(w, 4+float64(i%3))
	}
	g, id, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	var pairs []coupling.Pair
	if coupled {
		for l := 0; l < layers; l++ {
			for i := 0; i+1 < width; i++ {
				pi, pj := id[wires[l][i]], id[wires[l][i+1]]
				if pi > pj {
					pi, pj = pj, pi
				}
				pairs = append(pairs, coupling.Pair{
					I: pi, J: pj,
					CTilde: 2 + float64((l+i)%5),
					Dist:   2 + 0.2*float64(i%3),
					Weight: 0.5 + 0.5*float64((i+l)%2),
				})
			}
		}
	}
	cs, err := coupling.NewSet(pairs)
	if err != nil {
		return nil, nil, err
	}
	return g, cs, nil
}

// GridInstance wraps a Grid mesh in an Instance together with
// self-calibrated bounds, the exact construction the committed sweep
// golden fixture (internal/sweep/testdata/golden_grid.json) was generated
// from: the delay bound is the uniform-size critical path, and the noise
// and power bounds leave 40% headroom over the all-minimum-size floor.
// The construction is deterministic in (width, layers, coupled), so every
// process that materializes the same mesh — test, coordinator, or farm
// worker — holds a bit-identical instance; GridKey is the matching cache
// key. Only the sweep-relevant Instance fields are populated (Spec name,
// Coupling, Eval): grid meshes skip the netlist pipeline, so callers must
// use the returned bounds instead of DeriveBounds.
func GridInstance(width, layers int, coupled bool) (*Instance, Bounds, error) {
	g, cs, err := Grid(width, layers, coupled)
	if err != nil {
		return nil, Bounds{}, err
	}
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		return nil, Bounds{}, err
	}
	ev.SetAllSizes(1)
	ev.Recompute()
	a0 := ev.MaxArrival()
	ev.SetAllSizes(0.1)
	ev.Recompute()
	b := Bounds{
		A0:         a0,
		NoiseBound: 1.4*ev.NoiseLinear() + cs.ConstantOffset(),
		PowerBound: 1.4 * ev.TotalCap(),
	}
	ev.SetAllSizes(1)
	ev.Recompute()
	inst := &Instance{
		Spec:     Spec{Name: "grid-mesh"},
		Coupling: cs,
		Eval:     ev,
	}
	return inst, b, nil
}

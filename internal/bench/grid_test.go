package bench

import (
	"testing"

	"repro/internal/circuit"
)

// kinds counts a graph's nodes by component kind.
func kinds(g *circuit.Graph) map[circuit.Kind]int {
	n := map[circuit.Kind]int{}
	for i := 0; i < g.NumNodes(); i++ {
		n[g.Comp(i).Kind]++
	}
	return n
}

func TestGridStructure(t *testing.T) {
	const width, layers = 16, 6
	g, cs, err := Grid(width, layers, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := width*(2*layers+2) + 2; g.NumNodes() != want {
		t.Errorf("NumNodes = %d, want %d", g.NumNodes(), want)
	}
	if n := kinds(g)[circuit.Driver]; n != width {
		t.Errorf("drivers = %d, want %d", n, width)
	}
	if want := layers * (width - 1); cs.Len() != want {
		t.Errorf("coupling pairs = %d, want %d", cs.Len(), want)
	}
	// Depth buckets: every interior level must hold Θ(width) nodes — the
	// shape Grid documents.
	for l := 1; l < g.NumLevels()-1; l++ {
		if n := len(g.LevelNodes(l)); n != width {
			t.Errorf("level %d holds %d nodes, want %d", l, n, width)
		}
	}
	// Deterministic: a second build is structurally identical.
	g2, cs2, err := Grid(width, layers, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || cs2.Len() != cs.Len() {
		t.Error("Grid is not deterministic")
	}
	for i := 0; i < g.NumNodes(); i++ {
		if *g.Comp(i) != *g2.Comp(i) {
			t.Fatalf("Grid is not deterministic: component %d differs", i)
		}
	}

	if _, _, err := Grid(1, 5, false); err == nil {
		t.Error("Grid accepted width 1")
	}
	if _, cs, err := Grid(4, 2, false); err != nil || cs.Len() != 0 {
		t.Errorf("uncoupled Grid: err=%v pairs=%d", err, cs.Len())
	}
}

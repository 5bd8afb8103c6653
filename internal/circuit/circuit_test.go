package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildFigure1 constructs the paper's Figure 1/2 circuit: three input
// drivers, seven wires, three gates, one output load. Topology (names follow
// the node numbering of Figure 2):
//
//	D1 → w4 → g6;  D2 → w5 → g7;  D3 → w8 → g12
//	g6 → w9 → g12;  g6 → w10 → g12;  g7 → w11 → g12
//	g12 → w13 → output load
func buildFigure1(t testing.TB) (*Graph, map[string]int) {
	t.Helper()
	b := NewBuilder()
	const (
		r, c, f, l, a = 10, 0.16, 0.01, 50, 1
		lo, hi        = 0.1, 10
	)
	d1 := b.AddDriver("D1", 100)
	d2 := b.AddDriver("D2", 100)
	d3 := b.AddDriver("D3", 100)
	w4 := b.AddWire("w4", r, c, f, l, a, lo, hi)
	w5 := b.AddWire("w5", r, c, f, l, a, lo, hi)
	g6 := b.AddGate("g6", r, c, a, lo, hi)
	g7 := b.AddGate("g7", r, c, a, lo, hi)
	w8 := b.AddWire("w8", r, c, f, l, a, lo, hi)
	w9 := b.AddWire("w9", r, c, f, l, a, lo, hi)
	w10 := b.AddWire("w10", r, c, f, l, a, lo, hi)
	w11 := b.AddWire("w11", r, c, f, l, a, lo, hi)
	g12 := b.AddGate("g12", r, c, a, lo, hi)
	w13 := b.AddWire("w13", r, c, f, l, a, lo, hi)
	b.Connect(d1, w4)
	b.Connect(d2, w5)
	b.Connect(d3, w8)
	b.Connect(w4, g6)
	b.Connect(w5, g7)
	b.Connect(g6, w9)
	b.Connect(g6, w10)
	b.Connect(g7, w11)
	b.Connect(w8, g12)
	b.Connect(w9, g12)
	b.Connect(w10, g12)
	b.Connect(w11, g12)
	b.Connect(g12, w13)
	b.MarkOutput(w13, 20)
	g, _, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	byName := map[string]int{}
	for i := 0; i < g.NumNodes(); i++ {
		byName[g.Comp(i).Name] = i
	}
	return g, byName
}

func names(g *Graph, ids []int) map[string]bool {
	m := map[string]bool{}
	for _, i := range ids {
		m[g.Comp(i).Name] = true
	}
	return m
}

func TestFigure1Counts(t *testing.T) {
	g, _ := buildFigure1(t)
	if g.s != 3 || len(g.gates) != 3 || len(g.wires) != 7 {
		t.Fatalf("got %d drivers / %d gates / %d wires, want 3/3/7", g.s, len(g.gates), len(g.wires))
	}
	if g.NumNodes() != 15 { // n+s+2 = 10+3+2
		t.Errorf("NumNodes = %d, want 15", g.NumNodes())
	}
	if g.SinkID() != 14 {
		t.Errorf("SinkID = %d, want 14", g.SinkID())
	}
	if g.n != 10 {
		t.Errorf("components = %d, want 10", g.n)
	}
}

// TestFigure1Downstream checks the paper's worked fact downstream(D2) =
// {D2, w5, g7}: the stage of driver 2 stops at (and includes) gate 7.
func TestFigure1Downstream(t *testing.T) {
	g, id := buildFigure1(t)
	got := names(g, g.Downstream(id["D2"]))
	want := map[string]bool{"D2": true, "w5": true, "g7": true}
	if len(got) != len(want) {
		t.Fatalf("downstream(D2) = %v, want %v", got, want)
	}
	for n := range want {
		if !got[n] {
			t.Errorf("downstream(D2) missing %s", n)
		}
	}
}

// TestFigure1Upstream checks the paper's worked fact upstream(w10) = {g6}.
func TestFigure1Upstream(t *testing.T) {
	g, id := buildFigure1(t)
	got := names(g, g.Upstream(id["w10"]))
	if len(got) != 1 || !got["g6"] {
		t.Fatalf("upstream(w10) = %v, want {g6}", got)
	}
}

func TestFigure1UpstreamThroughWire(t *testing.T) {
	g, id := buildFigure1(t)
	// g12's stage drivers: through wires w8..w11 back to D3, g6, g7.
	got := names(g, g.Upstream(id["g12"]))
	want := map[string]bool{"w8": true, "w9": true, "w10": true, "w11": true, "D3": true, "g6": true, "g7": true}
	if len(got) != len(want) {
		t.Fatalf("upstream(g12) = %v, want %v", got, want)
	}
	for n := range want {
		if !got[n] {
			t.Errorf("upstream(g12) missing %s", n)
		}
	}
}

func TestFigure1DownstreamOfGate(t *testing.T) {
	g, id := buildFigure1(t)
	// Gate 6 drives two wires, both ending at g12.
	got := names(g, g.Downstream(id["g6"]))
	want := map[string]bool{"g6": true, "w9": true, "w10": true, "g12": true}
	if len(got) != len(want) {
		t.Fatalf("downstream(g6) = %v, want %v", got, want)
	}
	for n := range want {
		if !got[n] {
			t.Errorf("downstream(g6) missing %s", n)
		}
	}
}

func TestTopologicalIndexing(t *testing.T) {
	g, _ := buildFigure1(t)
	for i := 0; i < g.NumNodes(); i++ {
		for _, j := range g.Out(i) {
			if int(j) <= i {
				t.Errorf("edge (%d,%d) violates topological indexing", i, j)
			}
		}
	}
	// Drivers occupy 1..s.
	for i := 1; i <= g.s; i++ {
		if g.Comp(i).Kind != Driver {
			t.Errorf("node %d is %v, want driver", i, g.Comp(i).Kind)
		}
	}
}

func TestDepth(t *testing.T) {
	g, _ := buildFigure1(t)
	// Longest component chain: w5 g7 w11 g12 w13 (or w4 g6 w9/w10 g12 w13) = 5.
	if d := g.Depth(); d != 5 {
		t.Errorf("Depth = %d, want 5", d)
	}
}

func TestBuilderRejectsCycle(t *testing.T) {
	b := NewBuilder()
	d := b.AddDriver("d", 100)
	w := b.AddWire("w", 1, 1, 0, 1, 1, 0.1, 10)
	g1 := b.AddGate("g1", 1, 1, 1, 0.1, 10)
	w2 := b.AddWire("w2", 1, 1, 0, 1, 1, 0.1, 10)
	b.Connect(d, w)
	b.Connect(w, g1)
	b.Connect(g1, w2)
	b.Connect(w2, g1) // cycle g1 -> w2 -> g1
	b.MarkOutput(g1, 10)
	if _, _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a cyclic circuit")
	}
}

func TestBuilderRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Builder
	}{
		{"empty", func() *Builder { return NewBuilder() }},
		{"no outputs", func() *Builder {
			b := NewBuilder()
			d := b.AddDriver("d", 100)
			w := b.AddWire("w", 1, 1, 0, 1, 1, 0.1, 10)
			b.Connect(d, w)
			return b
		}},
		{"dangling wire", func() *Builder {
			b := NewBuilder()
			d := b.AddDriver("d", 100)
			w := b.AddWire("w", 1, 1, 0, 1, 1, 0.1, 10)
			w2 := b.AddWire("w2", 1, 1, 0, 1, 1, 0.1, 10)
			b.Connect(d, w)
			b.Connect(d, w2)
			b.MarkOutput(w, 10)
			return b
		}},
		{"wire with two inputs", func() *Builder {
			b := NewBuilder()
			d1 := b.AddDriver("d1", 100)
			d2 := b.AddDriver("d2", 100)
			w := b.AddWire("w", 1, 1, 0, 1, 1, 0.1, 10)
			b.Connect(d1, w)
			b.Connect(d2, w)
			b.MarkOutput(w, 10)
			return b
		}},
		{"gate with no fan-in", func() *Builder {
			b := NewBuilder()
			b.AddDriver("d", 100)
			g := b.AddGate("g", 1, 1, 1, 0.1, 10)
			b.MarkOutput(g, 10)
			return b
		}},
		{"driver with fan-in", func() *Builder {
			b := NewBuilder()
			d1 := b.AddDriver("d1", 100)
			d2 := b.AddDriver("d2", 100)
			b.Connect(d1, d2)
			b.MarkOutput(d2, 10)
			return b
		}},
		{"invalid bounds", func() *Builder {
			b := NewBuilder()
			d := b.AddDriver("d", 100)
			w := b.AddWire("w", 1, 1, 0, 1, 1, 10, 0.1)
			b.Connect(d, w)
			b.MarkOutput(w, 10)
			return b
		}},
		{"zero runit", func() *Builder {
			b := NewBuilder()
			d := b.AddDriver("d", 100)
			w := b.AddWire("w", 0, 1, 0, 1, 1, 0.1, 10)
			b.Connect(d, w)
			b.MarkOutput(w, 10)
			return b
		}},
		{"connect unknown", func() *Builder {
			b := NewBuilder()
			d := b.AddDriver("d", 100)
			b.Connect(d, 99)
			return b
		}},
		{"negative load", func() *Builder {
			b := NewBuilder()
			d := b.AddDriver("d", 100)
			w := b.AddWire("w", 1, 1, 0, 1, 1, 0.1, 10)
			b.Connect(d, w)
			b.MarkOutput(w, -5)
			return b
		}},
		{"double output", func() *Builder {
			b := NewBuilder()
			d := b.AddDriver("d", 100)
			w := b.AddWire("w", 1, 1, 0, 1, 1, 0.1, 10)
			b.Connect(d, w)
			b.MarkOutput(w, 10)
			b.MarkOutput(w, 10)
			return b
		}},
	}
	for _, c := range cases {
		if _, _, err := c.build().Build(); err == nil {
			t.Errorf("%s: Build() succeeded, want error", c.name)
		}
	}
}

// randomChain builds a random but always-valid driver→(wire→gate)*→wire
// chain circuit with extra random cross edges between gate outputs and later
// gates (via fresh wires), used for property tests.
func randomChain(rng *rand.Rand) *Graph {
	b := NewBuilder()
	d := b.AddDriver("d", 50+rng.Float64()*100)
	nStages := 2 + rng.Intn(6)
	prevGate := -1
	var gateIDs []int
	cur := d
	for s := 0; s < nStages; s++ {
		w := b.AddWire("w", 1+rng.Float64()*5, 0.5+rng.Float64(), rng.Float64()*0.1, 10+rng.Float64()*90, 1, 0.1, 10)
		b.Connect(cur, w)
		g := b.AddGate("g", 5+rng.Float64()*10, 0.1+rng.Float64(), 1+rng.Float64()*8, 0.1, 10)
		b.Connect(w, g)
		if prevGate >= 0 && rng.Intn(2) == 0 {
			wx := b.AddWire("wx", 1+rng.Float64()*5, 0.5+rng.Float64(), rng.Float64()*0.1, 10+rng.Float64()*90, 1, 0.1, 10)
			b.Connect(prevGate, wx)
			b.Connect(wx, g)
		}
		prevGate = g
		gateIDs = append(gateIDs, g)
		cur = g
	}
	wOut := b.AddWire("wout", 1, 1, 0.01, 20, 1, 0.1, 10)
	b.Connect(cur, wOut)
	b.MarkOutput(wOut, 10+rng.Float64()*40)
	g, _, err := b.Build()
	if err != nil {
		panic(err)
	}
	_ = gateIDs
	return g
}

func TestPropertyTopologicalAndStageInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomChain(rng)
		// Topological indexing invariant.
		for i := 0; i < g.NumNodes(); i++ {
			for _, j := range g.Out(i) {
				if int(j) <= i {
					return false
				}
			}
		}
		// Every wire's upstream ends at exactly one gate or driver.
		for _, wi := range g.Wires() {
			up := g.Upstream(int(wi))
			boundary := 0
			for _, u := range up {
				k := g.Comp(u).Kind
				if k == Gate || k == Driver {
					boundary++
				}
			}
			if boundary != 1 {
				return false
			}
		}
		// Downstream sets include the node itself and no source/sink.
		for i := 1; i <= g.n+g.s; i++ {
			ds := g.Downstream(i)
			self := false
			for _, u := range ds {
				if u == i {
					self = true
				}
				k := g.Comp(u).Kind
				if k == Source || k == Sink {
					return false
				}
			}
			if !self {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytesPositiveAndMonotone(t *testing.T) {
	g, _ := buildFigure1(t)
	small := g.MemoryBytes()
	if small <= 0 {
		t.Fatalf("MemoryBytes = %d, want positive", small)
	}
	rng := rand.New(rand.NewSource(7))
	big := randomChain(rng)
	for big.n <= g.n {
		big = randomChain(rng)
	}
	if big.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes of random circuit not positive")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Source: "source", Driver: "driver", Gate: "gate", Wire: "wire", Sink: "sink", Kind(9): "kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Source.Sizable() || Driver.Sizable() || Sink.Sizable() {
		t.Error("non-components reported sizable")
	}
	if !Gate.Sizable() || !Wire.Sizable() {
		t.Error("components not reported sizable")
	}
}

// TestLevelsFigure1 pins the level assignment on the paper's Figure-1
// circuit: levels strictly increase along every edge, the buckets partition
// the nodes in ascending order, level 0 holds exactly the source, and the
// sink sits alone on the top level.
func TestLevelsFigure1(t *testing.T) {
	g, id := buildFigure1(t)
	// Longest path: source → D1 → w4 → g6 → w9 → g12 → w13 → sink is 7
	// edges, so 8 levels.
	if got := g.NumLevels(); got != 8 {
		t.Errorf("NumLevels = %d, want 8", got)
	}
	for i := 0; i < g.NumNodes(); i++ {
		for _, j := range g.In(i) {
			if g.Level(int(j)) >= g.Level(i) {
				t.Fatalf("edge (%d,%d): level %d !< %d", j, i, g.Level(int(j)), g.Level(i))
			}
		}
	}
	if nodes := g.LevelNodes(0); len(nodes) != 1 || nodes[0] != 0 {
		t.Errorf("level 0 = %v, want [0] (source only)", nodes)
	}
	top := g.LevelNodes(g.NumLevels() - 1)
	if len(top) != 1 || int(top[0]) != g.SinkID() {
		t.Errorf("top level = %v, want [%d] (sink only)", top, g.SinkID())
	}
	// Spot values on the deepest chain.
	for name, want := range map[string]int{"D1": 1, "w4": 2, "g6": 3, "g12": 5, "w13": 6} {
		if got := g.Level(id[name]); got != want {
			t.Errorf("Level(%s) = %d, want %d", name, got, want)
		}
	}
}

// TestLevelsPartitionProperty checks on random chains that the level
// buckets are a partition consistent with Level() and ascending in index.
func TestLevelsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomChain(rng)
		seen := make([]int, g.NumNodes())
		for l := 0; l < g.NumLevels(); l++ {
			nodes := g.LevelNodes(l)
			for k, i := range nodes {
				if g.Level(int(i)) != l {
					return false
				}
				if k > 0 && nodes[k-1] >= i {
					return false
				}
				seen[i]++
			}
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		// Depth (sizable nodes on the longest path) can never exceed the
		// edge-count depth of the level assignment.
		if g.Depth() > g.NumLevels()-1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBuildLoose covers the validation split: structurally incomplete
// graphs (no outputs, dangling components, a feeder-less sink) build in
// loose mode but not in strict mode, while per-node validity and
// acyclicity are enforced by both.
func TestBuildLoose(t *testing.T) {
	mk := func() *Builder {
		b := NewBuilder()
		d := b.AddDriver("D", 100)
		w := b.AddWire("w", 10, 2, 1, 50, 1, 0.1, 10)
		b.Connect(d, w) // dangling wire, no outputs anywhere
		return b
	}
	if _, _, err := mk().Build(); err == nil {
		t.Error("strict Build accepted a circuit with no outputs")
	}
	g, _, err := mk().BuildLoose()
	if err != nil {
		t.Fatalf("BuildLoose: %v", err)
	}
	if n := len(g.In(g.SinkID())); n != 0 {
		t.Errorf("loose sink has %d feeders, want 0", n)
	}
	for i := 0; i < g.NumNodes(); i++ {
		for _, j := range g.In(i) {
			if g.Level(int(j)) >= g.Level(i) {
				t.Fatalf("loose graph edge (%d,%d) does not increase level", j, i)
			}
		}
	}
	// Per-node validity still enforced in loose mode.
	b := NewBuilder()
	d := b.AddDriver("D", 100)
	w1 := b.AddWire("w1", 10, 2, 1, 50, 1, 0.1, 10)
	w2 := b.AddWire("w2", 10, 2, 1, 50, 1, 0.1, 10)
	b.Connect(d, w1)
	b.Connect(d, w2)
	b.Connect(w2, w1) // wire fan-in 2
	if _, _, err := b.BuildLoose(); err == nil {
		t.Error("BuildLoose accepted a wire with fan-in 2")
	}
	// Cycles still rejected in loose mode.
	b = NewBuilder()
	d = b.AddDriver("D", 100)
	g1 := b.AddGate("g1", 10, 1, 1, 0.1, 10)
	g2 := b.AddGate("g2", 10, 1, 1, 0.1, 10)
	b.Connect(d, g1)
	b.Connect(g1, g2)
	b.Connect(g2, g1)
	if _, _, err := b.BuildLoose(); err == nil {
		t.Error("BuildLoose accepted a cycle")
	}
}

// FuzzGraphLevels feeds arbitrary byte-shaped DAGs through BuildLoose and
// asserts the levelizer's structural contract: a valid topological order
// (levels strictly increase along edges) whose buckets partition the nodes
// in ascending index order, with the topological node numbering intact.
func FuzzGraphLevels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	f.Add([]byte("level buckets must be a topological partition"))
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[pos%len(data)])
			pos++
			return v
		}
		b := NewBuilder()
		var nodes []int
		for i := 0; i < 1+next()%3; i++ {
			nodes = append(nodes, b.AddDriver("d", 10+float64(next()%100)))
		}
		for c := 0; c < len(data)%50; c++ {
			if next()%2 == 0 {
				w := b.AddWire("w", 1+float64(next()%20), 0.5, 0.1, 30, 1, 0.1, 10)
				b.Connect(nodes[next()%len(nodes)], w)
				nodes = append(nodes, w)
			} else {
				g := b.AddGate("g", 1+float64(next()%20), 0.5, 1, 0.1, 10)
				for k := 0; k <= next()%2; k++ {
					b.Connect(nodes[next()%len(nodes)], g)
				}
				nodes = append(nodes, g)
			}
			if next()%5 == 0 {
				b.MarkOutput(nodes[len(nodes)-1], float64(next()%30))
			}
		}
		g, _, err := b.BuildLoose()
		if err != nil {
			return // bytes may double-mark an output etc.
		}
		seen := make([]bool, g.NumNodes())
		for l := 0; l < g.NumLevels(); l++ {
			bucket := g.LevelNodes(l)
			for k, i := range bucket {
				if g.Level(int(i)) != l || seen[i] || (k > 0 && bucket[k-1] >= i) {
					t.Fatalf("bucket %d broken at node %d", l, i)
				}
				seen[i] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("node %d missing from buckets", i)
			}
			for _, j := range g.In(i) {
				if int(j) >= i {
					t.Fatalf("edge (%d,%d) violates topological numbering", j, i)
				}
				if g.Level(int(j)) >= g.Level(i) {
					t.Fatalf("edge (%d,%d) does not increase level", j, i)
				}
			}
		}
	})
}

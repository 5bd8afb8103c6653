package netlist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/tech"
)

// benchC17 is the classic ISCAS85 c17 netlist: 5 inputs, 2 outputs, 6 NAND
// gates, 12 gate-input connections.
const benchC17 = `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func parseC17(t testing.TB) *Netlist {
	t.Helper()
	n, err := Parse("c17", strings.NewReader(benchC17))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return n
}

func TestParseC17(t *testing.T) {
	n := parseC17(t)
	st := n.Stats()
	if st.Inputs != 5 || st.Outputs != 2 || st.Gates != 6 {
		t.Fatalf("stats = %+v, want 5 inputs / 2 outputs / 6 gates", st)
	}
	if st.Connections != 12 {
		t.Errorf("connections = %d, want 12", st.Connections)
	}
	if st.Depth != 3 {
		t.Errorf("depth = %d, want 3", st.Depth)
	}
	if i := n.Index("16"); i < 0 || n.Gates[i].Type != Nand {
		t.Errorf("net 16 lookup failed: idx=%d", i)
	}
	if n.Index("nope") != -1 {
		t.Error("Index of unknown net should be -1")
	}
}

func TestParseTopologicalOrder(t *testing.T) {
	n := parseC17(t)
	for gi, g := range n.Gates {
		for _, f := range g.Fanin {
			if int(f) >= gi {
				t.Errorf("gate %s at %d has fan-in %s at %d (not topological)", g.Name, gi, n.Gates[f].Name, f)
			}
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	n := parseC17(t)
	var buf bytes.Buffer
	if err := n.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	n2, err := Parse("c17rt", &buf)
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if n.Stats() != n2.Stats() {
		t.Fatalf("round trip changed stats: %+v vs %+v", n.Stats(), n2.Stats())
	}
	for gi, g := range n.Gates {
		g2 := n2.Gates[n2.Index(g.Name)]
		if g2.Type != g.Type || len(g2.Fanin) != len(g.Fanin) {
			t.Errorf("gate %q changed: %v/%d vs %v/%d", g.Name, g.Type, len(g.Fanin), g2.Type, len(g2.Fanin))
		}
		_ = gi
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown type", "INPUT(a)\nOUTPUT(b)\nb = FROB(a)\n"},
		{"undefined fanin", "INPUT(a)\nOUTPUT(b)\nb = NOT(zzz)\n"},
		{"duplicate net", "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\nb = NOT(a)\n"},
		{"input redefined", "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n"},
		{"empty fanin", "INPUT(a)\nOUTPUT(b)\nb = AND(a, )\n"},
		{"garbage", "INPUT(a)\nwhat is this\n"},
		{"missing paren", "INPUT a\n"},
		{"undefined output", "INPUT(a)\nOUTPUT(q)\nb = NOT(a)\n"},
		{"no outputs", "INPUT(a)\nb = NOT(a)\n"},
		{"no inputs", "OUTPUT(b)\n"},
		{"cycle", "INPUT(a)\nOUTPUT(c)\nb = AND(a, c)\nc = NOT(b)\n"},
		{"not fanin 2", "INPUT(a)\nINPUT(b)\nOUTPUT(c)\nc = NOT(a, b)\n"},
		{"and fanin 1", "INPUT(a)\nOUTPUT(c)\nc = AND(a)\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.name, strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: Parse succeeded, want error", c.name)
		}
	}
}

func TestParseDFFExtraction(t *testing.T) {
	src := `INPUT(a)
OUTPUT(z)
q = DFF(d)
d = NAND(a, q)
z = NOT(q)
`
	n, err := Parse("seq", strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	st := n.Stats()
	// q becomes a pseudo-input, d a pseudo-output.
	if st.Inputs != 2 {
		t.Errorf("inputs = %d, want 2 (a and pseudo-input q)", st.Inputs)
	}
	if st.Outputs != 2 {
		t.Errorf("outputs = %d, want 2 (z and pseudo-output d)", st.Outputs)
	}
	if st.Gates != 2 {
		t.Errorf("gates = %d, want 2", st.Gates)
	}
}

func TestParseCommentsAndCase(t *testing.T) {
	src := `# leading comment
input(a)  # inline comment
INPUT(b)
output(z)
z = nand(a, b)
`
	n, err := Parse("case", strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if st := n.Stats(); st.Inputs != 2 || st.Gates != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestElaborateC17(t *testing.T) {
	n := parseC17(t)
	e, err := Elaborate(n, ElabOptions{Tech: tech.Default()})
	if err != nil {
		t.Fatalf("Elaborate: %v", err)
	}
	kinds := map[circuit.Kind]int{}
	for i := 0; i < e.Graph.NumNodes(); i++ {
		kinds[e.Graph.Comp(i).Kind]++
	}
	if kinds[circuit.Driver] != 5 {
		t.Errorf("drivers = %d, want 5", kinds[circuit.Driver])
	}
	if kinds[circuit.Gate] != 6 {
		t.Errorf("gates = %d, want 6", kinds[circuit.Gate])
	}
	// Paper accounting: wires = connections + outputs = 12 + 2 = 14.
	if kinds[circuit.Wire] != 14 {
		t.Errorf("wires = %d, want 14", kinds[circuit.Wire])
	}
}

func TestElaborateMappings(t *testing.T) {
	n := parseC17(t)
	e, err := Elaborate(n, ElabOptions{Tech: tech.Default()})
	if err != nil {
		t.Fatalf("Elaborate: %v", err)
	}
	g := e.Graph
	// Every netlist gate maps to a node of matching kind and name.
	for gi, gate := range n.Gates {
		v := e.NodeOf[gi]
		c := g.Comp(v)
		if c.Name != gate.Name {
			t.Errorf("gate %q maps to node named %q", gate.Name, c.Name)
		}
		wantKind := circuit.Gate
		if gate.Type == Input {
			wantKind = circuit.Driver
		}
		if c.Kind != wantKind {
			t.Errorf("gate %q maps to %v, want %v", gate.Name, c.Kind, wantKind)
		}
		if e.NetOf[v] != gi {
			t.Errorf("NetOf(NodeOf(%q)) = %d, want %d", gate.Name, e.NetOf[v], gi)
		}
	}
	// Every wire's NetOf is the net of its (unique) fan-in node.
	for _, wi := range g.Wires() {
		w := int(wi)
		in := g.In(w)
		if len(in) != 1 {
			t.Fatalf("wire %d has %d inputs", w, len(in))
		}
		if e.NetOf[w] != e.NetOf[in[0]] {
			t.Errorf("wire %q: NetOf = %d, driver NetOf = %d", g.Comp(w).Name, e.NetOf[w], e.NetOf[in[0]])
		}
	}
	// Source and sink carry no net.
	if e.NetOf[0] != -1 || e.NetOf[g.SinkID()] != -1 {
		t.Error("source/sink should map to net -1")
	}
}

func TestElaborateWireLengths(t *testing.T) {
	n := parseC17(t)
	e, err := Elaborate(n, ElabOptions{
		Tech:       tech.Default(),
		WireLength: func(from, to, branch int) float64 { return 10 + float64(branch)*5 },
	})
	if err != nil {
		t.Fatalf("Elaborate: %v", err)
	}
	p := tech.Default()
	for _, wi := range e.Graph.Wires() {
		c := e.Graph.Comp(int(wi))
		if c.Length < 10 {
			t.Errorf("wire %q length %g < 10", c.Name, c.Length)
		}
		wantR := p.WireResistance * c.Length
		if c.RUnit != wantR {
			t.Errorf("wire %q RUnit = %g, want %g", c.Name, c.RUnit, wantR)
		}
	}
}

func TestElaborateRejectsBadLength(t *testing.T) {
	n := parseC17(t)
	_, err := Elaborate(n, ElabOptions{
		Tech:       tech.Default(),
		WireLength: func(from, to, branch int) float64 { return -1 },
	})
	if err == nil {
		t.Fatal("Elaborate accepted negative wire length")
	}
}

func TestGateTypeFanins(t *testing.T) {
	if Input.MinFanin() != 0 || Input.MaxFanin() != 0 {
		t.Error("Input fanin bounds wrong")
	}
	if Not.MinFanin() != 1 || Not.MaxFanin() != 1 {
		t.Error("Not fanin bounds wrong")
	}
	if And.MinFanin() != 2 || And.MaxFanin() != 0 {
		t.Error("And fanin bounds wrong")
	}
	if GateType(200).String() == "" {
		t.Error("unknown gate type should still print")
	}
}

package logicsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

// NumNets returns the number of nets (netlist gates) simulated.
func (w *Waveforms) NumNets() int { return len(w.bits) }

// Bit reports the logic value of net at pattern t.
func (w *Waveforms) Bit(net, t int) bool {
	return w.bits[net][t>>6]&(1<<(uint(t)&63)) != 0
}

func mustParse(t testing.TB, src string) *netlist.Netlist {
	t.Helper()
	n, err := netlist.Parse("test", strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return n
}

// truthNet exercises one gate of each type against its truth table.
const truthNet = `INPUT(a)
INPUT(b)
OUTPUT(and2)
OUTPUT(nand2)
OUTPUT(or2)
OUTPUT(nor2)
OUTPUT(xor2)
OUTPUT(xnor2)
OUTPUT(nota)
OUTPUT(bufa)
and2 = AND(a, b)
nand2 = NAND(a, b)
or2 = OR(a, b)
nor2 = NOR(a, b)
xor2 = XOR(a, b)
xnor2 = XNOR(a, b)
nota = NOT(a)
bufa = BUF(a)
`

func TestTruthTables(t *testing.T) {
	n := mustParse(t, truthNet)
	// Patterns 0..3 enumerate (a,b) = (0,0),(1,0),(0,1),(1,1).
	w, err := SimulateFunc(n, 4, func(input, t int) bool {
		if n.Gates[n.Inputs[input]].Name == "a" {
			return t&1 != 0
		}
		return t&2 != 0
	})
	if err != nil {
		t.Fatalf("SimulateFunc: %v", err)
	}
	want := map[string][4]bool{
		"and2":  {false, false, false, true},
		"nand2": {true, true, true, false},
		"or2":   {false, true, true, true},
		"nor2":  {true, false, false, false},
		"xor2":  {false, true, true, false},
		"xnor2": {true, false, false, true},
		"nota":  {true, false, true, false},
		"bufa":  {false, true, false, true},
	}
	for name, vals := range want {
		gi := n.Index(name)
		for tt := 0; tt < 4; tt++ {
			if got := w.Bit(gi, tt); got != vals[tt] {
				t.Errorf("%s pattern %d = %v, want %v", name, tt, got, vals[tt])
			}
		}
	}
}

func TestWideGates(t *testing.T) {
	n := mustParse(t, `INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(x)
OUTPUT(y)
x = AND(a, b, c)
y = XOR(a, b, c)
`)
	w, err := SimulateFunc(n, 8, func(input, t int) bool { return t&(1<<uint(input)) != 0 })
	if err != nil {
		t.Fatalf("SimulateFunc: %v", err)
	}
	xi, yi := n.Index("x"), n.Index("y")
	for tt := 0; tt < 8; tt++ {
		a, b, c := tt&1 != 0, tt&2 != 0, tt&4 != 0
		if got := w.Bit(xi, tt); got != (a && b && c) {
			t.Errorf("AND3 pattern %d = %v", tt, got)
		}
		parity := a != b != c // XOR3
		if got := w.Bit(yi, tt); got != parity {
			t.Errorf("XOR3 pattern %d = %v, want %v", tt, got, parity)
		}
	}
}

func TestSimilarityIdentityAndComplement(t *testing.T) {
	n := mustParse(t, `INPUT(a)
OUTPUT(x)
OUTPUT(y)
x = BUF(a)
y = NOT(a)
`)
	w, err := Simulate(n, 1000, 42)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	ai, xi, yi := n.Index("a"), n.Index("x"), n.Index("y")
	if s := w.Similarity(ai, xi); s != 1 {
		t.Errorf("similarity(a, buf(a)) = %g, want 1", s)
	}
	if s := w.Similarity(ai, yi); s != -1 {
		t.Errorf("similarity(a, not(a)) = %g, want -1", s)
	}
	if s := w.Similarity(ai, ai); s != 1 {
		t.Errorf("self similarity = %g, want 1", s)
	}
}

func TestSimilarityIndependentNearZero(t *testing.T) {
	n := mustParse(t, `INPUT(a)
INPUT(b)
OUTPUT(x)
x = AND(a, b)
`)
	w, err := Simulate(n, 1<<16, 7)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	s := w.Similarity(n.Index("a"), n.Index("b"))
	if math.Abs(s) > 0.05 {
		t.Errorf("similarity of independent inputs = %g, want ≈ 0", s)
	}
}

func TestSimilarityBoundsProperty(t *testing.T) {
	n := mustParse(t, `INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(u)
OUTPUT(v)
OUTPUT(z)
u = NAND(a, b)
v = NOR(b, c)
z = XOR(u, v)
`)
	f := func(seed int64, tRaw uint16) bool {
		T := int(tRaw)%500 + 1
		w, err := SimulateFunc(n, T, func(input, t int) bool {
			return (seed+int64(input*31+t*7))%3 == 0
		})
		if err != nil {
			return false
		}
		for i := 0; i < w.NumNets(); i++ {
			for j := 0; j < w.NumNets(); j++ {
				s := w.Similarity(i, j)
				if s < -1 || s > 1 {
					return false
				}
				if s != w.Similarity(j, i) {
					return false
				}
			}
			if w.Similarity(i, i) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityMatrixSymmetric(t *testing.T) {
	n := mustParse(t, `INPUT(a)
INPUT(b)
OUTPUT(x)
OUTPUT(y)
x = OR(a, b)
y = NAND(a, b)
`)
	w, err := Simulate(n, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets := []int{n.Index("a"), n.Index("b"), n.Index("x"), n.Index("y")}
	m := w.SimilarityMatrix(nets)
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %g", i, i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	n := mustParse(t, `INPUT(a)
INPUT(b)
OUTPUT(x)
x = XOR(a, b)
`)
	w1, _ := Simulate(n, 333, 99)
	w2, _ := Simulate(n, 333, 99)
	for tt := 0; tt < 333; tt++ {
		if w1.Bit(n.Index("x"), tt) != w2.Bit(n.Index("x"), tt) {
			t.Fatal("same seed produced different waveforms")
		}
	}
	w3, _ := Simulate(n, 333, 100)
	same := true
	for tt := 0; tt < 333; tt++ {
		if w1.Bit(n.Index("a"), tt) != w3.Bit(n.Index("a"), tt) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical input waveforms")
	}
}

func TestFromBitsFigure6(t *testing.T) {
	// The paper's Figure 6: four wires 4,5,7,8 with waveforms such that
	// similarity(4,5) = -0.07, similarity(5,7) = 0.93, etc. We reproduce
	// the structure with discrete samples: wires 5 and 7 nearly identical,
	// 4 and 8 nearly complementary to them.
	mk := func(pattern string) []bool {
		r := make([]bool, len(pattern))
		for i, c := range pattern {
			r[i] = c == '1'
		}
		return r
	}
	w, err := FromBits([][]bool{
		mk("1100110011001100"), // wire 4
		mk("0011001100110011"), // wire 5 ≈ complement of 4
		mk("0011001100110010"), // wire 7 ≈ wire 5
		mk("1100110011001101"), // wire 8 ≈ wire 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Similarity(0, 1); s != -1 {
		t.Errorf("similarity(4,5) = %g, want -1", s)
	}
	if s := w.Similarity(1, 2); math.Abs(s-0.875) > 1e-12 {
		t.Errorf("similarity(5,7) = %g, want 0.875", s)
	}
	if s := w.Similarity(0, 3); math.Abs(s-0.875) > 1e-12 {
		t.Errorf("similarity(4,8) = %g, want 0.875", s)
	}
	if s := w.Similarity(2, 3); s != -1 {
		t.Errorf("similarity(7,8) = %g, want -1 (flips at same position)", s)
	}
	if s := w.Similarity(1, 3); math.Abs(s-(-0.875)) > 1e-12 {
		t.Errorf("similarity(5,8) = %g, want -0.875", s)
	}
}

func TestFromBitsErrors(t *testing.T) {
	if _, err := FromBits(nil); err == nil {
		t.Error("FromBits(nil) should fail")
	}
	if _, err := FromBits([][]bool{{}}); err == nil {
		t.Error("FromBits(empty row) should fail")
	}
	if _, err := FromBits([][]bool{{true}, {true, false}}); err == nil {
		t.Error("FromBits(ragged) should fail")
	}
}

func TestSimulateErrors(t *testing.T) {
	n := mustParse(t, "INPUT(a)\nOUTPUT(x)\nx = BUF(a)\n")
	if _, err := Simulate(n, 0, 1); err == nil {
		t.Error("Simulate with 0 patterns should fail")
	}
}

func TestPaddingBitsMasked(t *testing.T) {
	// T not a multiple of 64: NOT gates set padding bits unless masked;
	// similarity must still be exact.
	n := mustParse(t, "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\n")
	for _, T := range []int{1, 63, 64, 65, 127, 130} {
		w, err := Simulate(n, T, 5)
		if err != nil {
			t.Fatal(err)
		}
		if s := w.Similarity(n.Index("a"), n.Index("x")); s != -1 {
			t.Errorf("T=%d: similarity(a, not a) = %g, want -1", T, s)
		}
	}
}

func BenchmarkSimulate64kPatterns(b *testing.B) {
	// A 3-level random netlist, 64k patterns.
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < 16; i++ {
		sb.WriteString("INPUT(i")
		sb.WriteByte(byte('a' + i))
		sb.WriteString(")\n")
	}
	prev := make([]string, 16)
	for i := range prev {
		prev[i] = "i" + string(byte('a'+i))
	}
	id := 0
	for lv := 0; lv < 3; lv++ {
		next := make([]string, 16)
		for i := range next {
			id++
			name := "n" + string(byte('a'+lv)) + string(byte('a'+i))
			a, c := prev[rng.Intn(16)], prev[rng.Intn(16)]
			if a == c {
				c = prev[(rng.Intn(15)+1+i)%16]
			}
			sb.WriteString(name + " = NAND(" + a + ", " + c + ")\n")
			next[i] = name
		}
		prev = next
	}
	for i := range prev {
		sb.WriteString("OUTPUT(" + prev[i] + ")\n")
	}
	n, err := netlist.Parse("bench", strings.NewReader(sb.String()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(n, 1<<16, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

package rc

import (
	"math"
	"testing"

	"repro/internal/circuit"
)

// TestPerturbValidate pins the perturbation guard: every scalar must be
// positive and finite, NaN included (NaN slides through `> 0`? no — the
// check is written `!(v > 0)`, which catches NaN too; this table proves
// it stays that way).
func TestPerturbValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Perturb
		ok   bool
	}{
		{"nominal", Nominal(), true},
		{"corner", Perturb{R: 1.1, C: 0.9, Threshold: 1.15}, true},
		{"zero R", Perturb{R: 0, C: 1, Threshold: 1}, false},
		{"negative C", Perturb{R: 1, C: -1, Threshold: 1}, false},
		{"NaN threshold", Perturb{R: 1, C: 1, Threshold: math.NaN()}, false},
		{"inf R", Perturb{R: math.Inf(1), C: 1, Threshold: 1}, false},
		{"negative inf C", Perturb{R: 1, C: math.Inf(-1), Threshold: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid perturbation accepted")
			}
		})
	}
	if !Nominal().IsNominal() {
		t.Error("Nominal() not IsNominal")
	}
	if (Perturb{R: 1, C: 1.0000001, Threshold: 1}).IsNominal() {
		t.Error("perturbed C reported nominal")
	}
}

// TestScaledReplicaNominalIsExact: a ×1.0 perturbation is the identity in
// floating point, so the nominal ScaledReplica must be bit-identical to a
// plain replica — and shares the base topology outright.
func TestScaledReplicaNominalIsExact(t *testing.T) {
	g := buildChain(t)
	cs := emptySet(t)
	base, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	nom, err := base.ScaledReplica(Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if nom.t != base.t {
		t.Error("nominal ScaledReplica rebuilt the topology instead of sharing it")
	}
	base.SetAllSizes(0.8)
	nom.SetAllSizes(0.8)
	base.Recompute()
	nom.Recompute()
	for i := 0; i < g.NumNodes(); i++ {
		if nom.A[i] != base.A[i] || nom.C[i] != base.C[i] || nom.D[i] != base.D[i] {
			t.Fatalf("node %d: nominal replica diverged from base", i)
		}
	}
	if _, err := base.ScaledReplica(Perturb{R: 0, C: 1, Threshold: 1}); err == nil {
		t.Error("ScaledReplica accepted a zero scalar")
	}
}

// TestScaledReplicaSharesStructure: a nominal replica shares the base
// topology outright, and a perturbed one shares its structural arrays
// (coupling CSR, level buckets) — the memory contract that makes a
// Monte-Carlo sample cost constant arrays, not an elaboration.
func TestScaledReplicaSharesStructure(t *testing.T) {
	g := buildChain(t)
	cs := emptySet(t)
	base, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	nom, err := base.ScaledReplica(Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if nom.t != base.t {
		t.Error("nominal replica did not share the base topology")
	}
	pert, err := base.ScaledReplica(Perturb{R: 1.1, C: 0.9, Threshold: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if pert.t == base.t {
		t.Error("perturbed replica shared the base topology")
	}
	if &pert.t.lvlNodes[0] != &base.t.lvlNodes[0] {
		t.Error("perturbed topology copied the level buckets")
	}
	if _, err := base.ScaledReplica(Perturb{R: math.NaN(), C: 1, Threshold: 1}); err == nil {
		t.Error("ScaledReplica accepted a NaN scalar")
	}
}

// buildChain makes a minimal driver→wire→gate→wire(output) chain.
func buildChain(t *testing.T) *circuit.Graph {
	t.Helper()
	b := circuit.NewBuilder()
	d := b.AddDriver("d", 100)
	w1 := b.AddWire("w1", 10, 0.5, 0.1, 50, 1, 0.2, 3)
	gt := b.AddGate("g", 12, 0.4, 2, 0.3, 4)
	w2 := b.AddWire("w2", 8, 0.5, 0.1, 40, 1, 0.2, 3)
	b.Connect(d, w1)
	b.Connect(w1, gt)
	b.Connect(gt, w2)
	b.MarkOutput(w2, 15)
	g, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzVariation is the technology-perturbation adversary: for every DAG
// the bytes describe it draws K random perturbation scalar triples
// (nominal included) and sizes, and demands that each scaled replica's
// Recompute and UpstreamResistance equal bitwise the passes of a twin
// replica derived separately from the same Perturb and sizes. That is the
// foundation of every corner and Monte-Carlo sample: a perturbed
// evaluator is a pure function of (circuit, Perturb, sizes).
func FuzzVariation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 121, 98})
	f.Add([]byte("perturbed replicas must match scaled solos bit for bit"))
	f.Add([]byte{0, 128, 0, 128, 0, 128, 0, 128, 0, 128, 0, 128, 0, 128})
	f.Add([]byte{42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cs := dagFromBytes(t, data)
		if g == nil {
			return
		}
		base, err := NewEvaluator(g, cs)
		if err != nil {
			t.Fatal(err) // generator only couples wires, so this must build
		}
		feed := &byteFeed{data: data}
		nn := g.NumNodes()
		k := 1 + feed.next()%4
		for r := 0; r < k; r++ {
			p := Nominal() // one draw in four exercises the shared-base-topo path
			if feed.next()%4 != 0 {
				// Scalars in [0.5, 1.49] — the corner/Monte-Carlo regime.
				p = Perturb{
					R:         0.5 + float64(feed.next()%100)/100,
					C:         0.5 + float64(feed.next()%100)/100,
					Threshold: 0.5 + float64(feed.next()%100)/100,
				}
			}
			twin, err := base.ScaledReplica(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nn; i++ {
				if c := g.Comp(i); c.Kind.Sizable() {
					twin.X[i] = c.Lo + float64(feed.next()%32)/31*(c.Hi-c.Lo)
				}
			}
			lambda := make([]float64, nn)
			for i := range lambda {
				lambda[i] = float64((i*3+r*7+len(data))%13) / 5
			}
			twin.Recompute()
			ref := make([]float64, nn)
			twin.UpstreamResistance(lambda, ref)

			e, err := base.ScaledReplica(p)
			if err != nil {
				t.Fatal(err)
			}
			copy(e.X, twin.X)
			e.Recompute()
			dst := make([]float64, nn)
			e.UpstreamResistance(lambda, dst)
			for i := 0; i < nn; i++ {
				if e.B[i] != twin.B[i] || e.C[i] != twin.C[i] || e.CPr[i] != twin.CPr[i] ||
					e.D[i] != twin.D[i] || e.A[i] != twin.A[i] ||
					e.Cap[i] != twin.Cap[i] || e.RPs[i] != twin.RPs[i] {
					t.Fatalf("replica %d (p=%+v) node %d: (B=%.17g C=%.17g D=%.17g A=%.17g) != twin (B=%.17g C=%.17g D=%.17g A=%.17g)",
						r, p, i, e.B[i], e.C[i], e.D[i], e.A[i],
						twin.B[i], twin.C[i], twin.D[i], twin.A[i])
				}
				if e.CNbr != nil && e.CNbr[i] != twin.CNbr[i] {
					t.Fatalf("replica %d node %d: CNbr %.17g != %.17g", r, i, e.CNbr[i], twin.CNbr[i])
				}
				if dst[i] != ref[i] {
					t.Fatalf("replica %d node %d: R=%.17g != twin R=%.17g", r, i, dst[i], ref[i])
				}
			}
		}
	})
}

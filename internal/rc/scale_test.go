package rc

import (
	"math"
	"testing"
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
	base.RecomputeSerial()
	nom.RecomputeSerial()
	for i := 0; i < g.NumNodes(); i++ {
		if nom.A[i] != base.A[i] || nom.C[i] != base.C[i] || nom.D[i] != base.D[i] {
			t.Fatalf("node %d: nominal replica diverged from base", i)
		}
	}
	if _, err := base.ScaledReplica(Perturb{R: 0, C: 1, Threshold: 1}); err == nil {
		t.Error("ScaledReplica accepted a zero scalar")
	}
}

// TestScaledBatchSharesStructure: scaled replicas share the structural
// arrays (coupling CSR, level buckets) with the base topology — the
// memory contract that makes a Monte-Carlo batch cost constant stripes,
// not elaborations.
func TestScaledBatchSharesStructure(t *testing.T) {
	g := buildChain(t)
	cs := emptySet(t)
	b, err := NewScaledBatch(g, cs, []Perturb{Nominal(), {R: 1.1, C: 0.9, Threshold: 1.2}})
	if err != nil {
		t.Fatal(err)
	}
	e0, e1 := b.Ev(0), b.Ev(1)
	if e0.t != b.t {
		t.Error("nominal batch replica did not share the base topology")
	}
	if e1.t == b.t {
		t.Error("perturbed batch replica shared the base topology")
	}
	if &e1.t.lvlNodes[0] != &b.t.lvlNodes[0] {
		t.Error("perturbed topology copied the level buckets")
	}
	if _, err := NewScaledBatch(g, cs, nil); err == nil {
		t.Error("NewScaledBatch accepted an empty perturbation set")
	}
	if _, err := NewScaledBatch(g, cs, []Perturb{{R: math.NaN(), C: 1, Threshold: 1}}); err == nil {
		t.Error("NewScaledBatch accepted a NaN scalar")
	}
}

// FuzzVariation is the technology-perturbation adversary: for every DAG
// the bytes describe it draws K random perturbation scalar triples
// (nominal included), builds a scaled batch and K solo scaled replicas
// with identical sizes, and demands exact bitwise equality of every
// derived array after batched passes over arbitrary replica subsets
// (retirement) under hostile Runner chunkings — the rc.Batch contract
// extended over per-replica topologies, which is the foundation of the
// robust objective's batched scoring ≡ solo evaluation.
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
		feed := &byteFeed{data: data}
		k := 1 + feed.next()%4
		perturbs := make([]Perturb, k)
		for r := range perturbs {
			if feed.next()%4 == 0 {
				perturbs[r] = Nominal() // exercise the shared-base-topo path
				continue
			}
			// Scalars in [0.5, 1.49] — the corner/Monte-Carlo regime.
			perturbs[r] = Perturb{
				R:         0.5 + float64(feed.next()%100)/100,
				C:         0.5 + float64(feed.next()%100)/100,
				Threshold: 0.5 + float64(feed.next()%100)/100,
			}
		}
		b, err := NewScaledBatch(g, cs, perturbs)
		if err != nil {
			t.Fatal(err) // generator only couples wires, so this must build
		}
		base, err := NewEvaluator(g, cs)
		if err != nil {
			t.Fatal(err)
		}
		nn := g.NumNodes()
		solos := make([]*Evaluator, k)
		lambdas := make([][]float64, k)
		for r := 0; r < k; r++ {
			solo, err := base.ScaledReplica(perturbs[r])
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nn; i++ {
				c := g.Comp(i)
				if !c.Kind.Sizable() {
					continue
				}
				v := c.Lo + float64(feed.next()%32)/31*(c.Hi-c.Lo)
				solo.X[i] = v
				b.Ev(r).X[i] = v
			}
			solos[r] = solo
			lam := make([]float64, nn)
			for i := range lam {
				lam[i] = float64((i*3+r*7+len(data))%13) / 5
			}
			lambdas[r] = lam
		}
		subset := make([]int, 0, k)
		for r := 0; r < k; r++ {
			if feed.next()%2 == 0 {
				subset = append(subset, r)
			}
		}
		if len(subset) == 0 {
			subset = append(subset, feed.next()%k)
		}
		full := make([]int, k)
		for r := range full {
			full[r] = r
		}
		for _, parts := range []int{1, 3, 5} {
			if parts > 1 {
				b.SetRunner(chunkedRunner(parts))
			}
			for v, reps := range [][]int{subset, full} {
				dsts := make([][]float64, len(reps))
				lams := make([][]float64, len(reps))
				for n, r := range reps {
					dsts[n] = make([]float64, nn)
					lams[n] = lambdas[r]
				}
				if v == 0 {
					b.RecomputeAll(reps)
					b.UpstreamResistanceAll(reps, lams, dsts)
				} else {
					b.SweepAll(reps, lams, dsts)
				}
				for n, r := range reps {
					solo := solos[r]
					solo.RecomputeSerial()
					ref := make([]float64, nn)
					solo.UpstreamResistanceSerial(lambdas[r], ref)
					e := b.Ev(r)
					for i := 0; i < nn; i++ {
						if e.B[i] != solo.B[i] || e.C[i] != solo.C[i] || e.CPr[i] != solo.CPr[i] ||
							e.D[i] != solo.D[i] || e.A[i] != solo.A[i] ||
							e.Cap[i] != solo.Cap[i] || e.RPs[i] != solo.RPs[i] {
							t.Fatalf("parts=%d replica %d (p=%+v) node %d: batch (B=%.17g C=%.17g D=%.17g A=%.17g) != scaled solo (B=%.17g C=%.17g D=%.17g A=%.17g)",
								parts, r, perturbs[r], i, e.B[i], e.C[i], e.D[i], e.A[i],
								solo.B[i], solo.C[i], solo.D[i], solo.A[i])
						}
						if e.CNbr != nil && e.CNbr[i] != solo.CNbr[i] {
							t.Fatalf("parts=%d replica %d node %d: CNbr %.17g != %.17g",
								parts, r, i, e.CNbr[i], solo.CNbr[i])
						}
						if dsts[n][i] != ref[i] {
							t.Fatalf("parts=%d replica %d node %d: batch R=%.17g != scaled solo R=%.17g",
								parts, r, i, dsts[n][i], ref[i])
						}
					}
				}
			}
		}
	})
}

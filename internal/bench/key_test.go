package bench

import (
	"testing"
)

func TestFingerprintCanonical(t *testing.T) {
	zero := PipelineOptions{}
	explicit := PipelineOptions{Patterns: 256, ChannelSize: 10, Pitch: 1.6, OverlapFrac: 0.4, InitSize: 1, WireLengthScale: 1}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Errorf("zero options and spelled-out defaults fingerprint differently:\n%s\n%s",
			zero.Fingerprint(), explicit.Fingerprint())
	}
	scaled := PipelineOptions{WireLengthScale: 8}
	if zero.Fingerprint() == scaled.Fingerprint() {
		t.Error("WireLengthScale=8 fingerprints like the default")
	}
}

func TestKeysDistinguishInputs(t *testing.T) {
	raw := []byte("INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n")
	base := NetlistKey(raw, 17, PipelineOptions{})
	if k := NetlistKey(raw, 18, PipelineOptions{}); k == base {
		t.Error("seed change did not change the netlist key")
	}
	if k := NetlistKey(append([]byte("# c\n"), raw...), 17, PipelineOptions{}); k == base {
		t.Error("netlist change did not change the key")
	}
	if k := NetlistKey(raw, 17, PipelineOptions{WireLengthScale: 8}); k == base {
		t.Error("pipeline change did not change the key")
	}
	if k := NetlistKey(raw, 17, PipelineOptions{}); k != base {
		t.Error("identical inputs produced different keys")
	}

	spec, _ := SpecByName("c432")
	sk := SpecKey(spec, PipelineOptions{})
	spec2 := spec
	spec2.Seed++
	if SpecKey(spec2, PipelineOptions{}) == sk {
		t.Error("spec seed change did not change the spec key")
	}
	if SpecKey(spec, PipelineOptions{}) != sk {
		t.Error("identical specs produced different keys")
	}
}

// TestReplicaMatchesInstance checks that a replica starts from the
// instance's sizes on the shared graph and topology — its constant arrays
// are the instance's, not a rebuilt copy — and that mutating the replica
// leaves the instance evaluator untouched.
func TestReplicaMatchesInstance(t *testing.T) {
	spec, _ := SpecByName("c432")
	inst, err := BuildInstance(spec, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := inst.Replica()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph() != inst.Eval.Graph() || rep.Couplings() != inst.Eval.Couplings() {
		t.Fatal("replica does not share the instance graph/coupling set")
	}
	if len(rep.CHat) == 0 || &rep.CHat[0] != &inst.Eval.CHat[0] || &rep.CCst[0] != &inst.Eval.CCst[0] {
		t.Fatal("replica rebuilt the instance's topology instead of sharing it")
	}
	for i := range rep.X {
		if rep.X[i] != inst.Eval.X[i] {
			t.Fatalf("replica size %d = %g, instance has %g", i, rep.X[i], inst.Eval.X[i])
		}
	}
	rep.SetAllSizes(0.1)
	rep.Recompute()
	for i := range inst.Eval.X {
		if g := inst.Eval.Graph(); g.Comp(i).Kind.Sizable() && inst.Eval.X[i] == 0.1 {
			t.Fatal("mutating the replica changed the instance evaluator")
		}
	}
}

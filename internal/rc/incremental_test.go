package rc

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/coupling"
)

// incrementalPair builds two evaluators over the same circuit: inc (driven
// incrementally) and ref (the full-pass oracle), both settled at size.
func incrementalPair(t *testing.T, g *circuit.Graph, cs *coupling.Set, size float64) (inc, ref *Evaluator) {
	t.Helper()
	var err error
	if inc, err = NewEvaluator(g, cs); err != nil {
		t.Fatal(err)
	}
	if ref, err = NewEvaluator(g, cs); err != nil {
		t.Fatal(err)
	}
	inc.SetAllSizes(size)
	ref.SetAllSizes(size)
	inc.Recompute()
	ref.Recompute()
	return inc, ref
}

// requireBitEqual compares every derived array of two evaluators exactly.
func requireBitEqual(t *testing.T, inc, ref *Evaluator, ctx string) {
	t.Helper()
	nn := ref.g.NumNodes()
	for i := 0; i < nn; i++ {
		if inc.X[i] != ref.X[i] {
			t.Fatalf("%s: node %d X %.17g != %.17g", ctx, i, inc.X[i], ref.X[i])
		}
		if inc.Cap[i] != ref.Cap[i] || inc.RPs[i] != ref.RPs[i] {
			t.Fatalf("%s: node %d electrical state diverged", ctx, i)
		}
		if inc.B[i] != ref.B[i] || inc.C[i] != ref.C[i] || inc.CPr[i] != ref.CPr[i] {
			t.Fatalf("%s: node %d loads diverged: B %.17g/%.17g C %.17g/%.17g",
				ctx, i, inc.B[i], ref.B[i], inc.C[i], ref.C[i])
		}
		if inc.D[i] != ref.D[i] || inc.A[i] != ref.A[i] {
			t.Fatalf("%s: node %d timing diverged: D %.17g/%.17g A %.17g/%.17g",
				ctx, i, inc.D[i], ref.D[i], inc.A[i], ref.A[i])
		}
		if inc.CNbr != nil && inc.CNbr[i] != ref.CNbr[i] {
			t.Fatalf("%s: node %d CNbr %.17g != %.17g", ctx, i, inc.CNbr[i], ref.CNbr[i])
		}
	}
}

// coupledChainPair builds D→w1→g1→w2→load with an aggressor D2→w3→load
// where w1‖w3 are coupled — small enough to reason about, rich enough to
// cover wires, gates, coupling, and both artificial terminals. Eight
// independent padding chains keep the circuit large enough that a
// single-node mutation walks a cone instead of tripping the
// coneWorthwhile cutover into a full pass.
func coupledChainPair(t *testing.T) (*circuit.Graph, *coupling.Set, map[string]int) {
	t.Helper()
	b := circuit.NewBuilder()
	for p := 0; p < 8; p++ {
		pd := b.AddDriver("pd", 100)
		pw := b.AddWire("pw", 7+float64(p), 1.2, 0.05, 35, 1, 0.1, 10)
		b.Connect(pd, pw)
		b.MarkOutput(pw, 4)
	}
	d1 := b.AddDriver("D1", 120)
	d2 := b.AddDriver("D2", 90)
	w1 := b.AddWire("w1", 12, 2, 0.1, 60, 1, 0.1, 10)
	g1 := b.AddGate("g1", 25, 0.5, 3, 0.1, 10)
	w2 := b.AddWire("w2", 6, 1, 0.05, 30, 1, 0.1, 10)
	w3 := b.AddWire("w3", 9, 1.5, 0.08, 50, 1, 0.1, 10)
	b.Connect(d1, w1)
	b.Connect(w1, g1)
	b.Connect(g1, w2)
	b.Connect(d2, w3)
	b.MarkOutput(w2, 8)
	b.MarkOutput(w3, 3)
	g, id, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for i := 0; i < g.NumNodes(); i++ {
		names[g.Comp(i).Name] = i
	}
	i, j := id[w1], id[w3]
	if i > j {
		i, j = j, i
	}
	cs, err := coupling.NewSet([]coupling.Pair{{I: i, J: j, CTilde: 6, Dist: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g, cs, names
}

// TestIncrementalEmptyDirtySet: with nothing marked, the incremental pass
// must do no per-node work and leave every value untouched.
func TestIncrementalEmptyDirtySet(t *testing.T) {
	g, cs, _ := coupledChainPair(t)
	inc, ref := incrementalPair(t, g, cs, 1.5)
	before := inc.Stats()
	if chg, cone := inc.RecomputeIncremental(); !cone || len(chg) != 0 {
		t.Fatalf("empty dirty set reported cone=%v with %d changed nodes", cone, len(chg))
	}
	after := inc.Stats()
	if after.NodeVisits() != before.NodeVisits() {
		t.Errorf("empty dirty set executed %d bodies", after.NodeVisits()-before.NodeVisits())
	}
	if after.IncRecomputes != before.IncRecomputes+1 {
		t.Errorf("incremental call not counted")
	}
	rup, rupRef := make([]float64, g.NumNodes()), make([]float64, g.NumNodes())
	lambda := testLambda(g)
	inc.UpstreamResistance(lambda, rup)
	if chg, cone := inc.UpstreamResistanceIncremental(lambda, rup); !cone || len(chg) != 0 {
		t.Fatalf("empty dirty set reported cone=%v with %d changed upstream entries", cone, len(chg))
	}
	ref.UpstreamResistance(lambda, rupRef)
	for i := range rup {
		if rup[i] != rupRef[i] {
			t.Fatalf("node %d upstream %.17g != %.17g", i, rup[i], rupRef[i])
		}
	}
	requireBitEqual(t, inc, ref, "empty dirty set")
}

func testLambda(g *circuit.Graph) []float64 {
	lambda := make([]float64, g.NumNodes())
	for i := range lambda {
		lambda[i] = 0.2 + float64(i%7)*0.35
	}
	return lambda
}

// TestIncrementalAllDirty: mutating every sizable node must reproduce the
// full pass exactly.
func TestIncrementalAllDirty(t *testing.T) {
	g, cs, _ := coupledChainPair(t)
	inc, ref := incrementalPair(t, g, cs, 1)
	inc.SetAllSizes(2.75)
	ref.SetAllSizes(2.75)
	inc.RecomputeIncremental()
	ref.Recompute()
	requireBitEqual(t, inc, ref, "all dirty")
}

// TestIncrementalSinkAndSourceAdjacent mutates the nodes hugging the
// artificial terminals: a sink-feeding output wire and the first component
// behind a driver. The cones must stop cleanly at both ends.
func TestIncrementalSinkAndSourceAdjacent(t *testing.T) {
	g, cs, names := coupledChainPair(t)
	lambda := testLambda(g)
	for _, tc := range []struct {
		name string
		node string
	}{
		{"sink-adjacent", "w2"},
		{"source-adjacent", "w1"},
		{"aggressor-output", "w3"},
		{"gate", "g1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc, ref := incrementalPair(t, g, cs, 1.2)
			rup := make([]float64, g.NumNodes())
			rupRef := make([]float64, g.NumNodes())
			inc.UpstreamResistance(lambda, rup)
			i := names[tc.node]
			if _, err := inc.SetSize(i, 4.5); err != nil {
				t.Fatal(err)
			}
			ref.X[i] = inc.X[i]
			inc.RecomputeIncremental()
			ref.Recompute()
			requireBitEqual(t, inc, ref, tc.name)
			inc.UpstreamResistanceIncremental(lambda, rup)
			ref.UpstreamResistance(lambda, rupRef)
			for n := range rup {
				if rup[n] != rupRef[n] {
					t.Fatalf("%s: node %d upstream %.17g != %.17g", tc.name, n, rup[n], rupRef[n])
				}
			}
		})
	}
}

// TestIncrementalCouplingNeighbor: resizing w1 must propagate through the
// coupling pair into w3's CNbr, C, and delay — the neighbour sits in a
// disjoint part of the DAG, so only the coupling edge can carry the change.
func TestIncrementalCouplingNeighbor(t *testing.T) {
	g, cs, names := coupledChainPair(t)
	inc, ref := incrementalPair(t, g, cs, 1)
	w3 := names["w3"]
	oldD := inc.D[w3]
	i := names["w1"]
	if _, err := inc.SetSize(i, 3.3); err != nil {
		t.Fatal(err)
	}
	ref.X[i] = inc.X[i]
	chg, cone := inc.RecomputeIncremental()
	if !cone {
		t.Fatal("single-node mutation should walk a cone, not degrade to a full pass")
	}
	ref.Recompute()
	requireBitEqual(t, inc, ref, "coupling neighbour")
	if inc.D[w3] == oldD {
		t.Fatalf("neighbour delay did not move with the aggressor size")
	}
	// The neighbour's resize inputs changed, so the change feed must
	// mention it (that is what reactivates it in the solver's active set).
	found := false
	for _, n := range chg {
		if int(n) == w3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("change feed %v does not include coupling neighbour %d", chg, w3)
	}
}

// TestIncrementalFallsBackBeforeFullPass: a fresh evaluator has no valid
// derived state; the incremental entry points must degrade to full passes.
func TestIncrementalFallsBackBeforeFullPass(t *testing.T) {
	g, cs, _ := coupledChainPair(t)
	inc, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	inc.SetAllSizes(1.1)
	ref.SetAllSizes(1.1)
	if chg, cone := inc.RecomputeIncremental(); cone || chg != nil {
		t.Fatalf("fallback should report (nil, false), got (%v, %v)", chg, cone)
	}
	ref.Recompute()
	requireBitEqual(t, inc, ref, "fallback")
	if st := inc.Stats(); st.FullRecomputes != 1 || st.IncRecomputes != 0 {
		t.Errorf("fallback counted as %+v", st)
	}
	// Upstream fallback on a second fresh evaluator.
	inc2, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	inc2.SetAllSizes(1.1)
	lambda := testLambda(g)
	rup := make([]float64, g.NumNodes())
	if chg, cone := inc2.UpstreamResistanceIncremental(lambda, rup); cone || chg != nil {
		t.Fatalf("upstream fallback should report (nil, false), got (%v, %v)", chg, cone)
	}
}

// TestSetSizeContract covers clamping, rejection, and dirty marking.
func TestSetSizeContract(t *testing.T) {
	g, cs, names := coupledChainPair(t)
	inc, _ := incrementalPair(t, g, cs, 1)
	w1 := names["w1"]
	if v, err := inc.SetSize(w1, 99); err != nil || v != 10 {
		t.Errorf("SetSize clamp high: v=%g err=%v", v, err)
	}
	if v, err := inc.SetSize(w1, -5); err != nil || v != 0.1 {
		t.Errorf("SetSize clamp low: v=%g err=%v", v, err)
	}
	if _, err := inc.SetSize(w1, math.NaN()); err == nil {
		t.Error("SetSize accepted NaN")
	}
	if _, err := inc.SetSize(w1, math.Inf(1)); err == nil {
		t.Error("SetSize accepted +Inf")
	}
	if _, err := inc.SetSize(0, 1); err == nil {
		t.Error("SetSize accepted the source node")
	}
	// Marking a non-sizable node is an ignored no-op.
	inc.MarkDirty(0)
	inc.MarkDirty(g.SinkID())
	inc.SetAllSizes(inc.X[w1])
	inc.RecomputeIncremental()
	before := inc.Stats().NodeVisits()
	inc.SetAllSizes(inc.X[w1]) // identical sizes: nothing marked dirty
	inc.RecomputeIncremental()
	if visits := inc.Stats().NodeVisits() - before; visits != 0 {
		t.Errorf("no-op SetAllSizes triggered %d body executions", visits)
	}
}

// TestIncrementalWorkIsLocal: on a long chain, a single mid-chain
// mutation must evaluate far fewer bodies than the full circuit — the
// point of the dirty-cone engine.
func TestIncrementalWorkIsLocal(t *testing.T) {
	b := circuit.NewBuilder()
	prev := b.AddDriver("D", 100)
	var mid int
	const segs = 60
	for k := 0; k < segs; k++ {
		w := b.AddWire("w", 10, 1.5, 0.05, 40, 1, 0.1, 10)
		g := b.AddGate("g", 20, 0.4, 2, 0.1, 10)
		b.Connect(prev, w)
		b.Connect(w, g)
		prev = g
		if k == segs/2 {
			mid = w
		}
	}
	wo := b.AddWire("wo", 5, 1, 0.05, 20, 1, 0.1, 10)
	b.Connect(prev, wo)
	b.MarkOutput(wo, 5)
	g, id, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := coupling.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	ev.SetAllSizes(1)
	ev.Recompute()
	ev.ResetStats()
	if _, err := ev.SetSize(id[mid], 2); err != nil {
		t.Fatal(err)
	}
	ev.RecomputeIncremental()
	st := ev.Stats()
	nn := int64(g.NumNodes())
	// The loads cone stops at the driving gate; the arrivals are one full
	// pass of nn−2 bodies. Anything near a full pass (3·nn bodies) means
	// the cone walk leaked.
	if st.NodeVisits() >= 2*nn {
		t.Errorf("mid-chain mutation evaluated %d bodies on a %d-node chain", st.NodeVisits(), nn)
	}
	if st.LoadsNodes > 8 {
		t.Errorf("backward loads cone evaluated %d nodes, want a stage-local handful", st.LoadsNodes)
	}
}

// TestQueryPathScratchVariants: AppendCriticalPath into a reused caller
// buffer must reproduce a fresh path exactly, keep any prefix, and
// allocate nothing once the buffer has the capacity.
func TestQueryPathScratchVariants(t *testing.T) {
	g, cs, _ := coupledChainPair(t)
	ev, _ := incrementalPair(t, g, cs, 1.4)

	want := ev.AppendCriticalPath(nil)
	buf := make([]int, 0, g.NumNodes())
	got := ev.AppendCriticalPath(buf)
	if len(got) != len(want) {
		t.Fatalf("AppendCriticalPath length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendCriticalPath[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Appending after a prefix keeps the prefix and order.
	pre := ev.AppendCriticalPath([]int{-7})
	if pre[0] != -7 || len(pre) != len(want)+1 || pre[1] != want[0] {
		t.Fatalf("AppendCriticalPath clobbered the prefix: %v", pre)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		buf = ev.AppendCriticalPath(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendCriticalPath allocates %.0f objects per call with capacity", allocs)
	}
}

// TestDegradeCounterSplit pins the accounting the solver's cutover
// hysteresis relies on: a pre-first-pass fallback counts only as a
// degraded call, while a degrade caused by the coneWorthwhile cutover is
// additionally charged to the Cutover* counters.
func TestDegradeCounterSplit(t *testing.T) {
	g, cs, _ := coupledChainPair(t)
	ev, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	ev.SetAllSizes(1.2)
	// Fresh evaluator: no valid derived state yet, so the degrade is the
	// pre-first-pass fallback, not a cutover hit.
	ev.RecomputeIncremental()
	if st := ev.Stats(); st.DegradedRecomputes != 1 || st.CutoverRecomputes != 0 {
		t.Fatalf("pre-first-pass fallback miscounted: %+v", st)
	}
	lambda := testLambda(g)
	rup := make([]float64, g.NumNodes())
	ev.UpstreamResistance(lambda, rup)
	// Dirty every sizable node: far past the 1/8 cutover.
	ev.SetAllSizes(2.5)
	ev.RecomputeIncremental()
	if st := ev.Stats(); st.DegradedRecomputes != 2 || st.CutoverRecomputes != 1 {
		t.Fatalf("cutover degrade miscounted: %+v", st)
	}
	ev.SetAllSizes(3.1)
	ev.UpstreamResistanceIncremental(lambda, rup)
	if st := ev.Stats(); st.DegradedUpstreams != 1 || st.CutoverUpstreams != 1 {
		t.Fatalf("cutover upstream degrade miscounted: %+v", st)
	}
	// A small dirty set walks cones and must leave the degrade counters
	// alone.
	ev.Recompute()
	ev.UpstreamResistance(lambda, rup)
	sizable := -1
	for i := 0; i < g.NumNodes(); i++ {
		if g.Comp(i).Kind.Sizable() {
			sizable = i
			break
		}
	}
	if _, err := ev.SetSize(sizable, 0.7); err != nil {
		t.Fatal(err)
	}
	ev.RecomputeIncremental()
	ev.UpstreamResistanceIncremental(lambda, rup)
	st := ev.Stats()
	if st.DegradedRecomputes != 2 || st.CutoverRecomputes != 1 ||
		st.DegradedUpstreams != 1 || st.CutoverUpstreams != 1 {
		t.Fatalf("cone walk touched the degrade counters: %+v", st)
	}
	if st.IncRecomputes == 0 || st.IncUpstreams == 0 {
		t.Fatalf("cone walk not counted as incremental: %+v", st)
	}
}

package rc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/coupling"
)

func emptySet(t testing.TB) *coupling.Set {
	t.Helper()
	s, err := coupling.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chain builds D(100Ω) → w(r̂10,ĉ2,f1) → g(r̂20,ĉ0.5) → w2(r̂5,ĉ1,f0.5) → 10fF.
func chain(t testing.TB) (*circuit.Graph, map[string]int) {
	t.Helper()
	b := circuit.NewBuilder()
	d := b.AddDriver("D", 100)
	w := b.AddWire("w", 10, 2, 1, 50, 1, 0.1, 10)
	g := b.AddGate("g", 20, 0.5, 4, 0.1, 10)
	w2 := b.AddWire("w2", 5, 1, 0.5, 25, 1, 0.1, 10)
	b.Connect(d, w)
	b.Connect(w, g)
	b.Connect(g, w2)
	b.MarkOutput(w2, 10)
	gr, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i := 0; i < gr.NumNodes(); i++ {
		byName[gr.Comp(i).Name] = i
	}
	return gr, byName
}

func TestChainHandComputed(t *testing.T) {
	g, id := chain(t)
	e, err := NewEvaluator(g, emptySet(t))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.NumNodes())
	x[id["w"]], x[id["g"]], x[id["w2"]] = 2, 1, 0.5
	if err := e.SetSizes(x); err != nil {
		t.Fatal(err)
	}
	e.Recompute()

	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	approx("cap(w)", e.Cap[id["w"]], 5)   // 2·2+1
	approx("cap(g)", e.Cap[id["g"]], 0.5) // 0.5·1
	approx("cap(w2)", e.Cap[id["w2"]], 1) // 1·0.5+0.5
	approx("B(w2)", e.B[id["w2"]], 10)    // load
	approx("B(g)", e.B[id["g"]], 11)      // c_w2 + B(w2)
	approx("B(w)", e.B[id["w"]], 0.5)     // gate input cap
	approx("B(D)", e.B[id["D"]], 5.5)     // c_w + B(w)
	approx("C(w)", e.C[id["w"]], 3)       // B + f/2 + ĉx/2 = 0.5+0.5+2
	approx("C(g)", e.C[id["g"]], 11)      // = B
	approx("C(w2)", e.C[id["w2"]], 10.5)  // 10+0.25+0.25
	approx("C'(w)", e.CPr[id["w"]], 1)    // B + f/2
	approx("C'(w2)", e.CPr[id["w2"]], 10.25)
	approx("D(D)", e.D[id["D"]], 0.55)    // 100·5.5·1e-3 ps
	approx("D(w)", e.D[id["w"]], 0.015)   // (10/2)·3·1e-3
	approx("D(g)", e.D[id["g"]], 0.22)    // 20·11·1e-3
	approx("D(w2)", e.D[id["w2"]], 0.105) // (5/0.5)·10.5·1e-3
	approx("a(w2)", e.A[id["w2"]], 0.89)  // 0.55+0.015+0.22+0.105
	approx("MaxArrival", e.MaxArrival(), 0.89)
	approx("TotalCap", e.TotalCap(), 6.5)
	approx("Area", e.Area(), 2+4+0.5) // α·x: 1·2 + 4·1 + 1·0.5
}

func TestChainCriticalPath(t *testing.T) {
	g, id := chain(t)
	e, _ := NewEvaluator(g, emptySet(t))
	e.SetAllSizes(1)
	e.Recompute()
	cp := e.AppendCriticalPath(nil)
	want := []int{id["D"], id["w"], id["g"], id["w2"]}
	if len(cp) != len(want) {
		t.Fatalf("critical path %v, want %v", cp, want)
	}
	for i := range cp {
		if cp[i] != want[i] {
			t.Fatalf("critical path %v, want %v", cp, want)
		}
	}
}

func TestUpstreamResistanceStages(t *testing.T) {
	g, id := chain(t)
	e, _ := NewEvaluator(g, emptySet(t))
	x := make([]float64, g.NumNodes())
	x[id["w"]], x[id["g"]], x[id["w2"]] = 2, 1, 0.5
	e.SetSizes(x)
	e.Recompute()
	lambda := make([]float64, g.NumNodes())
	for i := range lambda {
		lambda[i] = 1
	}
	r := make([]float64, g.NumNodes())
	e.UpstreamResistance(lambda, r)
	const rc = 1e-3
	if math.Abs(r[id["w"]]-100*rc) > 1e-12 {
		t.Errorf("R(w) = %g, want driver resistance 0.1", r[id["w"]])
	}
	if math.Abs(r[id["g"]]-(100+5)*rc) > 1e-12 {
		t.Errorf("R(g) = %g, want 0.105", r[id["g"]])
	}
	// Stage decoupling: w2 sees only the gate, not the upstream wire/driver.
	if math.Abs(r[id["w2"]]-20*rc) > 1e-12 {
		t.Errorf("R(w2) = %g, want 0.02 (gate only)", r[id["w2"]])
	}
	// Doubling λ on the gate doubles only w2's upstream resistance.
	lambda[id["g"]] = 2
	e.UpstreamResistance(lambda, r)
	if math.Abs(r[id["w2"]]-40*rc) > 1e-12 {
		t.Errorf("R(w2) with λg=2 = %g, want 0.04", r[id["w2"]])
	}
}

// coupledPair builds two parallel driver→wire→load stages with one
// coupling pair between the wires.
func coupledPair(t testing.TB, weight float64) (*circuit.Graph, map[string]int, *coupling.Set) {
	t.Helper()
	b := circuit.NewBuilder()
	d1 := b.AddDriver("D1", 100)
	d2 := b.AddDriver("D2", 100)
	wa := b.AddWire("wa", 10, 2, 1, 50, 1, 0.1, 10)
	wb := b.AddWire("wb", 10, 2, 1, 50, 1, 0.1, 10)
	b.Connect(d1, wa)
	b.Connect(d2, wb)
	b.MarkOutput(wa, 5)
	b.MarkOutput(wb, 5)
	g, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i := 0; i < g.NumNodes(); i++ {
		byName[g.Comp(i).Name] = i
	}
	cs, err := coupling.NewSet([]coupling.Pair{{
		I: min(byName["wa"], byName["wb"]), J: max(byName["wa"], byName["wb"]),
		CTilde: 8, Dist: 2, Weight: weight,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return g, byName, cs
}

func TestCouplingEntersOwnDelayOnly(t *testing.T) {
	g, id, cs := coupledPair(t, 1)
	e, err := NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	e.SetAllSizes(1)
	e.Recompute()
	wa, wb := id["wa"], id["wb"]
	// ĉ = 8/(2·2) = 2. Coupling on wa: c̃ + ĉ(xa+xb) = 8 + 2·2 = 12.
	// C(wa) = B(5) + f/2(0.5) + ĉx/2(1) + coupling(12) = 18.5.
	if math.Abs(e.C[wa]-18.5) > 1e-9 {
		t.Errorf("C(wa) = %g, want 18.5", e.C[wa])
	}
	// The driver's load must NOT include the coupling (paper-consistent
	// derivative; DESIGN.md §2): B(D1) = c_wa + B(wa) = 3 + 5 = 8.
	if math.Abs(e.C[id["D1"]]-8) > 1e-9 {
		t.Errorf("C(D1) = %g, want 8 (no coupling upstream)", e.C[id["D1"]])
	}
	// Symmetric for wb.
	if math.Abs(e.C[wb]-18.5) > 1e-9 {
		t.Errorf("C(wb) = %g, want 18.5", e.C[wb])
	}
	// C′ excludes neighbour and own-size terms: B + f/2 + c̃ = 5+0.5+8.
	if math.Abs(e.CPr[wa]-13.5) > 1e-9 {
		t.Errorf("C'(wa) = %g, want 13.5", e.CPr[wa])
	}
	// CNbr = ĉ·x_b = 2.
	if math.Abs(e.CNbr[wa]-2) > 1e-9 {
		t.Errorf("CNbr(wa) = %g, want 2", e.CNbr[wa])
	}
	_ = wb
}

func TestNoiseTotals(t *testing.T) {
	g, _, cs := coupledPair(t, 1)
	e, _ := NewEvaluator(g, cs)
	e.SetAllSizes(1)
	e.Recompute()
	// One pair, ĉ = 2: linear noise = ĉ(xa+xb) = 4.
	if got := e.NoiseLinear(); math.Abs(got-4) > 1e-9 {
		t.Errorf("NoiseLinear = %g, want 4", got)
	}
	// Exact noise = c̃/(1−(xa+xb)/(2d)) = 8/(1−0.5) = 16.
	if got := e.NoiseExact(); math.Abs(got-16) > 1e-9 {
		t.Errorf("NoiseExact = %g, want 16", got)
	}
}

func TestCouplingWeightScales(t *testing.T) {
	g, id, cs2 := coupledPair(t, 2)
	e2, _ := NewEvaluator(g, cs2)
	e2.SetAllSizes(1)
	e2.Recompute()
	// Weight 2 doubles the coupling contribution: C = 6.5 + 24 = 30.5.
	if math.Abs(e2.C[id["wa"]]-30.5) > 1e-9 {
		t.Errorf("C(wa) weight2 = %g, want 30.5", e2.C[id["wa"]])
	}
	if got := e2.NoiseLinear(); math.Abs(got-8) > 1e-9 {
		t.Errorf("NoiseLinear weight2 = %g, want 8", got)
	}
}

func TestNeighbourSizeAffectsOwnDelay(t *testing.T) {
	g, id, cs := coupledPair(t, 1)
	e, _ := NewEvaluator(g, cs)
	e.SetAllSizes(1)
	e.Recompute()
	d1 := e.D[id["wa"]]
	// Growing the neighbour increases wa's coupling load and delay.
	e.X[id["wb"]] = 4
	e.Recompute()
	d2 := e.D[id["wa"]]
	if d2 <= d1 {
		t.Errorf("delay(wa) %g -> %g after growing neighbour, want increase", d1, d2)
	}
}

func TestSetSizesClampsBounds(t *testing.T) {
	g, id := chain(t)
	e, _ := NewEvaluator(g, emptySet(t))
	x := make([]float64, g.NumNodes())
	x[id["w"]] = 99 // above Hi=10
	x[id["g"]] = 0  // below Lo=0.1
	e.SetSizes(x)
	if e.X[id["w"]] != 10 {
		t.Errorf("x(w) = %g, want clamped to 10", e.X[id["w"]])
	}
	if e.X[id["g"]] != 0.1 {
		t.Errorf("x(g) = %g, want clamped to 0.1", e.X[id["g"]])
	}
	if err := e.SetSizes([]float64{1}); err == nil {
		t.Error("SetSizes accepted wrong-length vector")
	}
}

func TestEvaluatorRejectsNonWireCoupling(t *testing.T) {
	g, id := chain(t)
	cs, err := coupling.NewSet([]coupling.Pair{{
		I: min(id["g"], id["w2"]), J: max(id["g"], id["w2"]),
		CTilde: 1, Dist: 1, Weight: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(g, cs); err == nil {
		t.Error("coupling on a gate accepted")
	}
}

// Property: upstream loads B are monotone in any component size, delays are
// positive, and arrival times are monotone along edges.
func TestPropertyRCInvariants(t *testing.T) {
	g, id := chain(t)
	e, _ := NewEvaluator(g, emptySet(t))
	f := func(xwRaw, xgRaw, xw2Raw float64) bool {
		clamp := func(v float64) float64 {
			v = math.Abs(math.Mod(v, 9.9)) + 0.1
			return v
		}
		x := make([]float64, g.NumNodes())
		x[id["w"]], x[id["g"]], x[id["w2"]] = clamp(xwRaw), clamp(xgRaw), clamp(xw2Raw)
		e.SetSizes(x)
		e.Recompute()
		bBefore := e.B[id["D"]]
		for i := 1; i < g.NumNodes()-1; i++ {
			if e.D[i] < 0 {
				return false
			}
			for _, j := range g.In(i) {
				if e.A[i] < e.A[j]-1e-12 {
					return false
				}
			}
		}
		// Growing the first wire grows the driver's load.
		x[id["w"]] += 1
		e.SetSizes(x)
		e.Recompute()
		return e.B[id["D"]] > bBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemoryLinear(t *testing.T) {
	g, _ := chain(t)
	e, _ := NewEvaluator(g, emptySet(t))
	want := 9*g.NumNodes()*8 + (g.NumLevels()+1+g.NumNodes()-2)*4
	if e.MemoryBytes() != want {
		t.Errorf("MemoryBytes = %d, want %d", e.MemoryBytes(), want)
	}
}

// randomDAG builds a random multi-stage circuit for fuzzing Recompute
// against a slow reference implementation of C via explicit Downstream sets.
func randomDAG(t testing.TB, seed int64) *circuit.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder()
	nd := 1 + rng.Intn(3)
	var drivers []int
	for i := 0; i < nd; i++ {
		drivers = append(drivers, b.AddDriver("d", 50+rng.Float64()*100))
	}
	var sources []int // nodes that can drive new wires (drivers, gates)
	sources = append(sources, drivers...)
	used := map[int]bool{}
	var allGates []int
	for layer := 0; layer < 2+rng.Intn(3); layer++ {
		gates := 1 + rng.Intn(3)
		var newGates []int
		for gi := 0; gi < gates; gi++ {
			g := b.AddGate("g", 5+rng.Float64()*20, 0.1+rng.Float64(), 1+rng.Float64()*7, 0.1, 10)
			fanin := 1 + rng.Intn(min(3, len(sources)))
			perm := rng.Perm(len(sources))
			for fi := 0; fi < fanin; fi++ {
				w := b.AddWire("w", 1+rng.Float64()*10, 0.2+rng.Float64(), rng.Float64(), 10+rng.Float64()*90, 1+rng.Float64(), 0.1, 10)
				b.Connect(sources[perm[fi]], w)
				b.Connect(w, g)
				used[sources[perm[fi]]] = true
			}
			newGates = append(newGates, g)
		}
		sources = append(sources, newGates...)
		allGates = append(allGates, newGates...)
	}
	for _, g := range allGates {
		if used[g] {
			continue
		}
		w := b.AddWire("wo", 1+rng.Float64()*5, 0.2+rng.Float64(), rng.Float64(), 10+rng.Float64()*40, 1, 0.1, 10)
		b.Connect(g, w)
		b.MarkOutput(w, 5+rng.Float64()*30)
	}
	// Drivers that never got picked as sources still need fan-out.
	for _, d := range drivers {
		if used[d] {
			continue
		}
		w := b.AddWire("wd", 1+rng.Float64()*5, 0.2+rng.Float64(), rng.Float64(), 10+rng.Float64()*40, 1, 0.1, 10)
		b.Connect(d, w)
		b.MarkOutput(w, 5+rng.Float64()*30)
	}
	gr, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// TestRecomputeMatchesDownstreamDefinition cross-checks the linear-pass C
// against a quadratic reference built from Graph.Downstream.
func TestRecomputeMatchesDownstreamDefinition(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := randomDAG(t, seed)
		e, err := NewEvaluator(g, emptySet(t))
		if err != nil {
			t.Fatal(err)
		}
		e.SetAllSizes(0.5 + float64(seed)*0.2)
		e.Recompute()
		for i := 1; i < g.NumNodes()-1; i++ {
			c := g.Comp(i)
			ref := 0.0
			for _, u := range g.Downstream(i) {
				cu := g.Comp(u)
				switch {
				case u == i && cu.Kind == circuit.Wire:
					ref += e.Cap[u]/2 + cu.Load
				case u == i:
					ref += cu.Load
				case cu.Kind == circuit.Wire:
					ref += e.Cap[u] + cu.Load
				default: // gate boundary
					ref += e.Cap[u]
				}
				_ = c
			}
			if math.Abs(ref-e.C[i]) > 1e-6*(1+math.Abs(ref)) {
				t.Fatalf("seed %d node %d (%v): C = %g, downstream reference = %g",
					seed, i, g.Comp(i).Kind, e.C[i], ref)
			}
		}
	}
}

// TestLevelBucketsAreTopological asserts the cone walks' premise on
// random DAGs: levels strictly increase along every edge, and the graph's
// buckets partition the nodes in ascending order.
func TestLevelBucketsAreTopological(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomDAG(t, seed)
		seen := make([]int, g.NumNodes())
		for l := 0; l < g.NumLevels(); l++ {
			nodes := g.LevelNodes(l)
			for k, i := range nodes {
				if g.Level(int(i)) != l {
					t.Fatalf("seed %d: node %d in bucket %d but Level says %d", seed, i, l, g.Level(int(i)))
				}
				if k > 0 && nodes[k-1] >= i {
					t.Fatalf("seed %d: bucket %d not ascending", seed, l)
				}
				seen[i]++
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: node %d appears %d times in level buckets", seed, i, n)
			}
		}
		for i := 0; i < g.NumNodes(); i++ {
			for _, j := range g.In(i) {
				if g.Level(int(j)) >= g.Level(i) {
					t.Fatalf("seed %d: edge (%d,%d) does not increase level (%d → %d)",
						seed, j, i, g.Level(int(j)), g.Level(i))
				}
			}
		}
	}
}

// TestDriverOnlyCircuit covers the smallest buildable graph: one driver
// marked as a primary output, no sizable components at all.
func TestDriverOnlyCircuit(t *testing.T) {
	b := circuit.NewBuilder()
	d := b.AddDriver("D", 100)
	b.MarkOutput(d, 10)
	g, id, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(g, emptySet(t))
	if err != nil {
		t.Fatal(err)
	}
	e.Recompute()
	di := id[d]
	if e.B[di] != 10 || e.C[di] != 10 {
		t.Errorf("B, C = %g, %g, want 10, 10 (output load only)", e.B[di], e.C[di])
	}
	wantD := 100 * 1e-3 * 10 // R_D·C_L·RC
	if math.Abs(e.D[di]-wantD) > 1e-12 {
		t.Errorf("D = %g, want %g", e.D[di], wantD)
	}
	if e.MaxArrival() != e.D[di] {
		t.Errorf("MaxArrival = %g, want %g", e.MaxArrival(), e.D[di])
	}
	if cp := e.AppendCriticalPath(nil); len(cp) != 1 || cp[0] != di {
		t.Errorf("AppendCriticalPath(nil) = %v, want [%d]", cp, di)
	}
	if a := e.Area(); a != 0 {
		t.Errorf("Area = %g, want 0 (nothing sizable)", a)
	}
}

// TestSinkFeederOnlyNet covers a net that feeds the sink directly from its
// driver through a single wire (no gates anywhere).
func TestSinkFeederOnlyNet(t *testing.T) {
	b := circuit.NewBuilder()
	d := b.AddDriver("D", 50)
	w := b.AddWire("w", 10, 2, 1, 40, 1, 0.1, 10)
	b.Connect(d, w)
	b.MarkOutput(w, 8)
	g, id, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(g, emptySet(t))
	if err != nil {
		t.Fatal(err)
	}
	e.SetAllSizes(2)
	e.Recompute()
	wi, di := id[w], id[d]
	if e.B[wi] != 8 {
		t.Errorf("B(w) = %g, want 8 (output load)", e.B[wi])
	}
	// C = B + f/2 + ĉx/2 = 8 + 0.5 + 2.
	if math.Abs(e.C[wi]-10.5) > 1e-12 {
		t.Errorf("C(w) = %g, want 10.5", e.C[wi])
	}
	if cp := e.AppendCriticalPath(nil); len(cp) != 2 || cp[0] != di || cp[1] != wi {
		t.Errorf("AppendCriticalPath(nil) = %v, want [%d %d]", cp, di, wi)
	}
	lambda := make([]float64, g.NumNodes())
	lambda[di] = 2
	r := make([]float64, g.NumNodes())
	e.UpstreamResistance(lambda, r)
	if math.Abs(r[wi]-2*50*1e-3) > 1e-15 {
		t.Errorf("R(w) = %g, want 0.1 (λ_D·R_D·RC)", r[wi])
	}
}

// TestZeroCouplingSet pins the uncoupled degenerate case: nil neighbour
// arrays, empty gather lists, zero noise, and no CNbr term in C.
func TestZeroCouplingSet(t *testing.T) {
	g, id := chain(t)
	e, err := NewEvaluator(g, emptySet(t))
	if err != nil {
		t.Fatal(err)
	}
	if e.CNbr != nil || e.CHat != nil || e.CCst != nil {
		t.Error("uncoupled evaluator allocated coupling arrays")
	}
	ids, ws := e.NbrEntries(id["w"])
	if ids != nil || ws != nil {
		t.Errorf("NbrEntries on uncoupled evaluator = %v, %v, want nil, nil", ids, ws)
	}
	e.SetAllSizes(1)
	e.Recompute()
	if e.NoiseLinear() != 0 || e.NoiseExact() != 0 {
		t.Errorf("noise = %g / %g, want 0 / 0", e.NoiseLinear(), e.NoiseExact())
	}
}

// TestSetSizesErrorPaths exercises every rejection branch: wrong length,
// NaN, and ±Inf entries — and checks a rejected call leaves sizes intact.
func TestSetSizesErrorPaths(t *testing.T) {
	g, id := chain(t)
	e, _ := NewEvaluator(g, emptySet(t))
	good := make([]float64, g.NumNodes())
	good[id["w"]], good[id["g"]], good[id["w2"]] = 2, 3, 4
	if err := e.SetSizes(good); err != nil {
		t.Fatal(err)
	}
	if err := e.SetSizes([]float64{1, 2}); err == nil {
		t.Error("SetSizes accepted wrong-length vector")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := make([]float64, g.NumNodes())
		copy(x, good)
		x[id["g"]] = bad
		if err := e.SetSizes(x); err == nil {
			t.Errorf("SetSizes accepted %g", bad)
		}
		if e.X[id["g"]] != 3 {
			t.Errorf("rejected SetSizes mutated X: %g", e.X[id["g"]])
		}
	}
	// Non-sizable slots may hold anything: they are ignored, not validated.
	x := make([]float64, g.NumNodes())
	copy(x, good)
	x[0] = math.NaN()
	if err := e.SetSizes(x); err != nil {
		t.Errorf("SetSizes rejected NaN on non-sizable node: %v", err)
	}
}

// TestCriticalPathNoSinkFeeders is the regression test for the degenerate
// graph whose sink has no predecessors (buildable only via BuildLoose):
// Recompute must define the sink arrival as 0 rather than leave it to
// whatever the arrays held, and AppendCriticalPath(nil) must return nil.
func TestCriticalPathNoSinkFeeders(t *testing.T) {
	b := circuit.NewBuilder()
	d := b.AddDriver("D", 100)
	w := b.AddWire("w", 10, 2, 1, 50, 1, 0.1, 10)
	b.Connect(d, w) // w dangles: no MarkOutput, so the sink has no feeders
	g, id, err := b.BuildLoose()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.In(g.SinkID())); n != 0 {
		t.Fatalf("sink has %d feeders, want 0", n)
	}
	e, err := NewEvaluator(g, emptySet(t))
	if err != nil {
		t.Fatal(err)
	}
	e.SetAllSizes(1)
	// Poison the arrays so a pass that "relies on zero values" fails loudly.
	for i := range e.A {
		e.A[i] = -7
		e.D[i] = -7
	}
	e.Recompute()
	if e.MaxArrival() != 0 {
		t.Errorf("MaxArrival = %g, want 0 with no sink feeders", e.MaxArrival())
	}
	if e.D[g.SinkID()] != 0 {
		t.Errorf("D(sink) = %g, want 0", e.D[g.SinkID()])
	}
	if e.A[id[w]] <= 0 {
		t.Errorf("A(w) = %g, want positive (the dangling net still evaluates)", e.A[id[w]])
	}
	if cp := e.AppendCriticalPath(nil); cp != nil {
		t.Errorf("AppendCriticalPath(nil) = %v, want nil", cp)
	}
}

// TestSetAllSizesNonFinite pins the clamp semantics for non-finite inputs:
// NaN and −Inf fall to each lower bound, +Inf to each upper bound — NaN
// must never reach X.
func TestSetAllSizesNonFinite(t *testing.T) {
	g, id := chain(t)
	e, _ := NewEvaluator(g, emptySet(t))
	for _, tc := range []struct {
		v    float64
		want func(c *circuit.Component) float64
	}{
		{math.NaN(), func(c *circuit.Component) float64 { return c.Lo }},
		{math.Inf(-1), func(c *circuit.Component) float64 { return c.Lo }},
		{math.Inf(1), func(c *circuit.Component) float64 { return c.Hi }},
	} {
		e.SetAllSizes(tc.v)
		for _, name := range []string{"w", "g", "w2"} {
			i := id[name]
			if got, want := e.X[i], tc.want(g.Comp(i)); got != want {
				t.Errorf("SetAllSizes(%g): X[%s] = %g, want %g", tc.v, name, got, want)
			}
		}
	}
}

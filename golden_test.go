package repro

// Golden-fixture regression suite for the solver. Each fixture is a
// deterministic circuit + option set whose full core.Result (sizes,
// iteration count, dual value, every metric, the analytic memory
// footprint) is committed as JSON under testdata/golden/. The suite
// demands BITWISE equality: encoding/json emits float64 with the shortest
// round-trippable representation, so unmarshalling reproduces every bit
// and reflect.DeepEqual is an exact comparison. Any change to the
// numerical pipeline — intended or not — shows up as a diff here first.
//
// Refresh after an intended numerical change with:
//
//	go test -run TestGolden -update .
//
// and commit the rewritten JSON together with the change that explains it.
// The same fixtures also pin the parallel contract: every solve is re-run
// at Workers ∈ {2, 4, 8} and must match the Workers=1 result bit for bit,
// and the evaluator's levelized passes are cross-checked against the
// serial reference implementations on every fixture.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/rc"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/golden/")

// goldenArch is the architecture the committed fixtures were generated on;
// update it together with the fixtures if they are ever regenerated
// elsewhere. The Workers-width comparisons are bitwise on every
// architecture — only the snapshot comparison is arch-sensitive (FMA).
const goldenArch = "amd64"

// goldenFixture builds one deterministic solver instance. build must
// return a fresh evaluator on every call (solves mutate sizes) plus the
// exact options for the run; Workers is set by the harness.
type goldenFixture struct {
	name  string
	build func(t *testing.T) (*rc.Evaluator, core.Options)
}

func c17Evaluator(t *testing.T) *bench.Instance {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "c17.bench"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nl, err := netlist.Parse("c17", f)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.AssembleNetlist(nl, 17, bench.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func instanceFixture(spec string, maxIter int, pipe bench.PipelineOptions) func(t *testing.T) (*rc.Evaluator, core.Options) {
	return func(t *testing.T) (*rc.Evaluator, core.Options) {
		t.Helper()
		s, ok := bench.SpecByName(spec)
		if !ok {
			t.Fatalf("unknown spec %s", spec)
		}
		inst, err := bench.BuildInstance(s, pipe)
		if err != nil {
			t.Fatal(err)
		}
		b := bench.DeriveBounds(inst)
		opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
		opt.MaxIterations = maxIter
		return inst.Eval, opt
	}
}

// gridFixture exercises the deep/wide synthetic mesh with couplings and
// per-net noise bounds — the constraint class the ISCAS fixtures don't hit.
func gridFixture(t *testing.T) (*rc.Evaluator, core.Options) {
	t.Helper()
	g, cs, err := bench.Grid(12, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	probe.SetAllSizes(1)
	probe.Recompute()
	a0 := probe.MaxArrival()
	probe.SetAllSizes(0.1)
	probe.Recompute()
	opt := core.DefaultOptions(a0, 1.6*probe.NoiseLinear()+cs.ConstantOffset(), 1.5*probe.TotalCap())
	opt.MaxIterations = 25
	opt.PerNetNoiseBounds = map[int]float64{}
	for i := 0; i < g.NumNodes() && len(opt.PerNetNoiseBounds) < 6; i++ {
		if g.Comp(i).Kind == circuit.Wire && len(cs.Neighbors(i)) > 0 {
			opt.PerNetNoiseBounds[i] = 1.4 * (probe.CHat[i]*probe.X[i] + probe.CNbr[i])
		}
	}
	ev, err := rc.NewEvaluator(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	return ev, opt
}

var goldenFixtures = []goldenFixture{
	{name: "c17", build: func(t *testing.T) (*rc.Evaluator, core.Options) {
		inst := c17Evaluator(t)
		b := bench.DeriveBounds(inst)
		opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
		return inst.Eval, opt
	}},
	{name: "c432", build: instanceFixture("c432", 30, bench.PipelineOptions{})},
	{name: "c880", build: instanceFixture("c880", 20, bench.PipelineOptions{})},
	{name: "c432-global8x", build: instanceFixture("c432", 20, bench.PipelineOptions{WireLengthScale: 8})},
	{name: "grid12x10", build: gridFixture},
	{name: "c432-damp03", build: dampedFixture(instanceFixture("c432", 30, bench.PipelineOptions{}), 0.3)},
	{name: "c880-damp1", build: dampedFixture(instanceFixture("c880", 20, bench.PipelineOptions{}), 1)},
}

// dampedFixture runs a fixture at a non-default LRSDamping ω: 0.3 pins
// the damped log-space resize and its floor skip away from the default
// 0.7, and 1 pins the pure xᵢ ← optᵢ branch, which takes no skip.
func dampedFixture(build func(*testing.T) (*rc.Evaluator, core.Options), w float64) func(*testing.T) (*rc.Evaluator, core.Options) {
	return func(t *testing.T) (*rc.Evaluator, core.Options) {
		t.Helper()
		ev, opt := build(t)
		opt.LRSDamping = w
		return ev, opt
	}
}

func solveGolden(t *testing.T, fx goldenFixture, workers int) *core.Result {
	t.Helper()
	ev, opt := fx.build(t)
	opt.Workers = workers
	sol, err := core.NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenFixtures is the regression gate: every fixture's serial result
// must match its committed snapshot bit for bit, and every parallel width
// must reproduce the serial result exactly.
func TestGoldenFixtures(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", fx.name+".json")
			ref := solveGolden(t, fx, 1)
			if *update {
				data, err := json.MarshalIndent(ref, "", "\t")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestGolden -update .` to create)", err)
			}
			want := new(core.Result)
			if err := json.Unmarshal(data, want); err != nil {
				t.Fatal(err)
			}
			// The snapshot comparison is bitwise only on the architecture
			// that generated the fixtures: elsewhere the compiler may fuse
			// a·b+c into FMA (the Go spec permits it), shifting last-ulp
			// bits. The cross-width checks below stay bitwise everywhere —
			// one binary, one rounding behaviour.
			if runtime.GOARCH == goldenArch {
				if !reflect.DeepEqual(want, ref) {
					t.Errorf("Workers=1 result diverged from golden snapshot %s", path)
					reportResultDiff(t, want, ref)
				}
			} else if !resultsApproxEqual(want, ref) {
				t.Errorf("Workers=1 result diverged from golden snapshot %s beyond FMA tolerance (GOARCH=%s, fixtures from %s)",
					path, runtime.GOARCH, goldenArch)
				reportResultDiff(t, want, ref)
			}
			for _, w := range []int{2, 4, 8} {
				if res := solveGolden(t, fx, w); !reflect.DeepEqual(ref, res) {
					t.Errorf("Workers=%d diverged from Workers=1", w)
					reportResultDiff(t, ref, res)
				}
			}
		})
	}
}

// resultsApproxEqual compares two results allowing last-ulps FMA drift in
// every float while demanding exact integer/bool agreement. The relative
// tolerance is far below any real regression but far above fused-rounding
// noise.
func resultsApproxEqual(a, b *core.Result) bool {
	const tol = 1e-12
	eq := func(x, y float64) bool {
		d := math.Abs(x - y)
		return d <= tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged ||
		a.LRSSweepsTotal != b.LRSSweepsTotal || a.MemoryBytes != b.MemoryBytes ||
		len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if !eq(a.X[i], b.X[i]) {
			return false
		}
	}
	pairs := [][2]float64{
		{a.Gap, b.Gap}, {a.Dual, b.Dual}, {a.Area, b.Area},
		{a.DelayPs, b.DelayPs}, {a.PowerCapFF, b.PowerCapFF},
		{a.NoiseLinFF, b.NoiseLinFF}, {a.NoiseExact, b.NoiseExact},
		{a.DelayViolation, b.DelayViolation}, {a.PowerViolation, b.PowerViolation},
		{a.NoiseViolation, b.NoiseViolation}, {a.PerNetNoiseViolation, b.PerNetNoiseViolation},
	}
	for _, p := range pairs {
		if !eq(p[0], p[1]) {
			return false
		}
	}
	return true
}

func reportResultDiff(t *testing.T, want, got *core.Result) {
	t.Helper()
	if want.Iterations != got.Iterations {
		t.Errorf("  iterations %d vs %d", want.Iterations, got.Iterations)
	}
	for _, f := range []struct {
		name       string
		want, have float64
	}{
		{"Area", want.Area, got.Area},
		{"DelayPs", want.DelayPs, got.DelayPs},
		{"Dual", want.Dual, got.Dual},
		{"Gap", want.Gap, got.Gap},
		{"NoiseLinFF", want.NoiseLinFF, got.NoiseLinFF},
		{"PowerCapFF", want.PowerCapFF, got.PowerCapFF},
	} {
		if f.want != f.have {
			t.Errorf("  %s %.17g vs %.17g", f.name, f.want, f.have)
		}
	}
	for i := range want.X {
		if i < len(got.X) && want.X[i] != got.X[i] {
			t.Errorf("  first size mismatch at node %d: %.17g vs %.17g", i, want.X[i], got.X[i])
			break
		}
	}
}

// TestGoldenIncrementalMatchesFull re-solves every fixture with the
// Incremental escape hatch thrown (full Recompute/UpstreamResistance on
// every sweep, the paper's literal Figure 8) and demands the exact result
// the default dirty-cone/active-set path produced. Together with
// TestGoldenFixtures — whose snapshots the incremental default is compared
// against — this pins both execution modes to one bit pattern.
func TestGoldenIncrementalMatchesFull(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			ref := solveGolden(t, fx, 1) // DefaultOptions: Incremental on
			ev, opt := fx.build(t)
			opt.Workers = 1
			opt.Incremental = false
			sol, err := core.NewSolver(ev, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer sol.Close()
			full, err := sol.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, full) {
				t.Errorf("full-pass solve diverged from the incremental default")
				reportResultDiff(t, full, ref)
			}
		})
	}
}

// TestGoldenLevelizedMatchesSerial cross-checks, on every golden fixture's
// circuit, the levelized evaluator passes (as scheduled by the solver's
// worker pool at several widths) against the serial reference
// implementations — the acceptance contract of the levelization.
func TestGoldenLevelizedMatchesSerial(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			ref, _ := fx.build(t)
			ref.SetAllSizes(1)
			ref.RecomputeSerial()
			lambda := make([]float64, len(ref.X))
			for i := range lambda {
				lambda[i] = 0.1 + float64(i%13)*0.25
			}
			refR := make([]float64, len(ref.X))
			ref.UpstreamResistanceSerial(lambda, refR)

			for _, w := range []int{1, 3, 8} {
				lv, opt := fx.build(t)
				opt.Workers = w
				sol, err := core.NewSolver(lv, opt) // installs the pool Runner
				if err != nil {
					t.Fatal(err)
				}
				lv.SetAllSizes(1)
				lv.Recompute()
				for i := range ref.X {
					if lv.B[i] != ref.B[i] || lv.C[i] != ref.C[i] || lv.CPr[i] != ref.CPr[i] ||
						lv.D[i] != ref.D[i] || lv.A[i] != ref.A[i] {
						sol.Close()
						t.Fatalf("Workers=%d: levelized Recompute diverged from serial at node %d", w, i)
					}
				}
				lvR := make([]float64, len(ref.X))
				lv.UpstreamResistance(lambda, lvR)
				for i := range refR {
					if lvR[i] != refR[i] {
						sol.Close()
						t.Fatalf("Workers=%d: levelized UpstreamResistance diverged at node %d: %.17g vs %.17g",
							w, i, lvR[i], refR[i])
					}
				}
				sol.Close()
			}
		})
	}
}

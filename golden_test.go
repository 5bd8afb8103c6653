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

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
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
// elsewhere. Only the snapshot comparison is arch-sensitive (FMA).
const goldenArch = "amd64"

// goldenFixture builds one deterministic solver instance. build must
// return a fresh evaluator on every call (solves mutate sizes) plus the
// exact options for the run.
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
}

// numericsDigests pins the SHA-256 of every committed solver fixture (see
// fixturesDigest) under the core.Numerics value that generated it, one
// entry per numerics ever released. A fixture refresh changes the digest,
// so it fails TestNumericsDigestPinned until core.Numerics is bumped and
// the new digest pinned under the new value: results of different
// numerics must never share a dedup key or a farm.
var numericsDigests = map[int]string{
	1: "36fd61669d8cd929f3d5d61c940b3e14d024d6c1bb64dc6492e17f808cd5a89d",
	2: "32dc4f5afcded7adb6a3a686cfbe805ccbb96cb3bcd0801f46b6e1cd2727dd0a",
	3: "bb9bc1e151c319c67dc24a757a04b8b320909784672e8da677d7a948b43b666d",
}

// fixturesDigest hashes the path, length and bytes of every file under
// testdata/golden/ and of the sweep package's golden grid, in a fixed
// order.
func fixturesDigest(t *testing.T) string {
	t.Helper()
	// Paths are hashed slash-separated on every OS; ReadDir sorts by name.
	const dir = "testdata/golden"
	entries, err := os.ReadDir(filepath.FromSlash(dir))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		paths = append(paths, dir+"/"+e.Name())
	}
	h := sha256.New()
	for _, p := range append(paths, "internal/sweep/testdata/golden_grid.json") {
		data, err := os.ReadFile(filepath.FromSlash(p))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNumericsDigestPinned enforces the bump: the committed fixtures must
// hash to the digest pinned under the current core.Numerics. Like the
// snapshot comparison it runs only on goldenArch, and it waits for a run
// without -update, which may be rewriting the files it reads.
func TestNumericsDigestPinned(t *testing.T) {
	if runtime.GOARCH != goldenArch {
		t.Skipf("fixtures are pinned on %s, not %s", goldenArch, runtime.GOARCH)
	}
	if *update {
		t.Skip("fixtures are being rewritten; rerun without -update")
	}
	got := fixturesDigest(t)
	want, ok := numericsDigests[core.Numerics]
	switch {
	case !ok:
		t.Fatalf("no fixture digest pinned for core.Numerics %d; pin %s", core.Numerics, got)
	case got != want:
		t.Fatalf("fixtures hash to %s, but core.Numerics %d pins %s: a fixture refresh must bump core.Numerics and pin the new digest under it",
			got, core.Numerics, want)
	}
}

func solveGolden(t *testing.T, fx goldenFixture) *core.Result {
	t.Helper()
	ev, opt := fx.build(t)
	sol, err := core.NewSolver(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenFixtures is the regression gate: every fixture's result must
// match its committed snapshot bit for bit.
func TestGoldenFixtures(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", fx.name+".json")
			ref := solveGolden(t, fx)
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
			// bits.
			if runtime.GOARCH == goldenArch {
				if !reflect.DeepEqual(want, ref) {
					t.Errorf("result diverged from golden snapshot %s", path)
					reportResultDiff(t, want, ref)
				}
			} else if !resultsApproxEqual(want, ref) {
				t.Errorf("result diverged from golden snapshot %s beyond FMA tolerance (GOARCH=%s, fixtures from %s)",
					path, runtime.GOARCH, goldenArch)
				reportResultDiff(t, want, ref)
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

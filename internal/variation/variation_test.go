package variation

import (
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rc"
)

// testInstance is the deterministic coupled mesh the sweep suite pins
// its oracles on — the same construction the farm re-materializes by
// key, so every bit-identity proved here transfers to the distributed
// path.
func testInstance(t testing.TB, width, layers int) (*bench.Instance, bench.Bounds) {
	t.Helper()
	inst, b, err := bench.GridInstance(width, layers, true)
	if err != nil {
		t.Fatal(err)
	}
	return inst, b
}

func testMCOptions(b bench.Bounds, mutate func(*MCOptions)) MCOptions {
	opt := MCOptions{
		Samples:       6,
		Seed:          7,
		Sigmas:        Sigmas{R: 0.05, C: 0.05, Threshold: 0.08},
		Bounds:        &b,
		MaxIterations: 12,
	}
	if mutate != nil {
		mutate(&opt)
	}
	return opt
}

func runMC(t *testing.T, inst *bench.Instance, opt MCOptions) *MCResult {
	t.Helper()
	res, err := MonteCarlo(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMonteCarloSampleBitIdentical is the schedule oracle: every
// fanned-out sample must be bitwise equal to the same sample solved on
// the solo path, GOMAXPROCS samples at a time against one at a time. This
// is the contract that lets the farm shard samples across workers — a
// shard is just a smaller fan-out of its sample indices.
func TestMonteCarloSampleBitIdentical(t *testing.T) {
	inst, b := testInstance(t, 10, 8)
	ref := runMC(t, inst, testMCOptions(b, func(o *MCOptions) { o.Solo = true }))
	if got := runMC(t, inst, testMCOptions(b, nil)); !reflect.DeepEqual(ref, got) {
		t.Error("fan-out diverged from solo reference")
	}
}

// TestMonteCarloSeedReproducible pins the seed contract: the same seed
// reproduces the identical result byte for byte, and a different seed
// actually moves the sample set.
func TestMonteCarloSeedReproducible(t *testing.T) {
	inst, b := testInstance(t, 10, 8)
	a := runMC(t, inst, testMCOptions(b, nil))
	c := runMC(t, inst, testMCOptions(b, nil))
	if !reflect.DeepEqual(a, c) {
		t.Error("same-seed reruns diverged")
	}
	d := runMC(t, inst, testMCOptions(b, func(o *MCOptions) { o.Seed = 8 }))
	if reflect.DeepEqual(a.Samples[0].Perturb, d.Samples[0].Perturb) {
		t.Error("different seeds drew the identical first perturbation")
	}
	if a.Yield < 0 || a.Yield > 1 {
		t.Errorf("yield %g outside [0,1]", a.Yield)
	}
	if a.Delay.N != len(a.Samples) {
		t.Errorf("delay dist over %d values, want %d", a.Delay.N, len(a.Samples))
	}
}

// TestPerturbsShardIndependent pins the sampler's index purity: sample
// i's perturbation depends only on (seed, i, sigmas), never on how many
// samples the run requested — so any slice of a run's samples is drawn
// exactly as the whole run draws it.
func TestPerturbsShardIndependent(t *testing.T) {
	s := Sigmas{R: 0.1, C: 0.2, Threshold: 0.3}
	full, err := drawPerturbs(42, 10, s)
	if err != nil {
		t.Fatal(err)
	}
	short, err := drawPerturbs(42, 4, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full[:4], short) {
		t.Error("sample set prefix depends on the requested count")
	}
	zero, err := drawPerturbs(42, 3, Sigmas{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range zero {
		if p != rc.Nominal() {
			t.Errorf("zero sigmas sample %d = %+v, want exact nominal", i, p)
		}
	}
}

// TestSamplerRejectsBadInputs is the validation fix's table: NaN,
// negative, and infinite sigmas and non-positive sample counts must be
// rejected before any draw, core.Options.validate-style.
func TestSamplerRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		s       Sigmas
		wantErr string
	}{
		{"zero samples", 0, Sigmas{}, "sample count must be positive"},
		{"negative samples", -3, Sigmas{}, "sample count must be positive"},
		{"nan R", 4, Sigmas{R: math.NaN()}, "sigma R"},
		{"negative C", 4, Sigmas{C: -0.1}, "sigma C"},
		{"inf threshold", 4, Sigmas{Threshold: math.Inf(1)}, "sigma Threshold"},
		{"negative inf R", 4, Sigmas{R: math.Inf(-1)}, "sigma R"},
		{"valid", 4, Sigmas{R: 0.1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := drawPerturbs(1, tc.k, tc.s)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	// The same rejection surfaces through MonteCarlo before any solve.
	inst, b := testInstance(t, 6, 4)
	if _, err := MonteCarlo(inst, testMCOptions(b, func(o *MCOptions) { o.Samples = 0 })); err == nil {
		t.Error("MonteCarlo accepted zero samples")
	}
	if _, err := MonteCarlo(inst, testMCOptions(b, func(o *MCOptions) { o.Sigmas.R = math.NaN() })); err == nil {
		t.Error("MonteCarlo accepted NaN sigma")
	}
}

func testCornerOptions(b bench.Bounds, mutate func(*CornerOptions)) CornerOptions {
	opt := CornerOptions{Bounds: &b, MaxIterations: 12}
	if mutate != nil {
		mutate(&opt)
	}
	return opt
}

// TestCornerWarmMatchesCold is the corner analogue of the sweep
// independence oracle: under ColdLRS+PrimalOnly a warm start carries no
// information the solver can use, so the warm corner enumeration must be
// bit-identical to the cold one.
func TestCornerWarmMatchesCold(t *testing.T) {
	inst, b := testInstance(t, 10, 8)
	warm, err := CornerSweep(inst, testCornerOptions(b, func(o *CornerOptions) {
		o.ColdLRS, o.PrimalOnly = true, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CornerSweep(inst, testCornerOptions(b, func(o *CornerOptions) {
		o.ColdLRS, o.PrimalOnly, o.Cold = true, true, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Error("warm corner sweep diverged from cold under ColdLRS+PrimalOnly")
	}
}

// TestCornerSweepShape pins the report structure: nominal plus one cell
// per corner in request order, the tt corner bit-identical to the
// nominal solve warm-started from itself converging in place.
func TestCornerSweepShape(t *testing.T) {
	inst, b := testInstance(t, 10, 8)
	rep, err := CornerSweep(inst, testCornerOptions(b, nil))
	if err != nil {
		t.Fatal(err)
	}
	std := StandardCorners()
	if len(rep.Cells) != len(std) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(std))
	}
	for i, c := range rep.Cells {
		if c.Corner.Name != std[i].Name {
			t.Errorf("cell %d is corner %q, want %q", i, c.Corner.Name, std[i].Name)
		}
		if c.Result == nil {
			t.Fatalf("corner %q has no result", c.Corner.Name)
		}
	}
	if rep.Delay.N != len(std) {
		t.Errorf("delay dist over %d corners, want %d", rep.Delay.N, len(std))
	}
	// Same options, rerun: deterministic byte for byte.
	again, err := CornerSweep(inst, testCornerOptions(b, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Error("corner sweep rerun diverged")
	}
}

// TestCornerObservationHooksAreInert: OnCorner and OnSample observe
// without perturbing a single bit, and OnCorner keeps its contract while
// the corners fan out: corner order, one call at a time.
func TestCornerObservationHooksAreInert(t *testing.T) {
	inst, b := testInstance(t, 10, 8)
	plain, err := CornerSweep(inst, testCornerOptions(b, nil))
	if err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Int32
	var seen []string
	hooked, err := CornerSweep(inst, testCornerOptions(b, func(o *CornerOptions) {
		o.OnCorner = func(c *CornerCell) {
			if n := inFlight.Add(1); n > 1 {
				t.Errorf("%d OnCorner calls in flight, want at most 1", n)
			}
			seen = append(seen, c.Corner.Name)
			inFlight.Add(-1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(plain.Cells) {
		t.Errorf("OnCorner fired %d times, want %d", len(seen), len(plain.Cells))
	}
	for i, name := range seen {
		if i < len(plain.Cells) && name != plain.Cells[i].Corner.Name {
			t.Errorf("OnCorner call %d saw corner %q, want %q", i, name, plain.Cells[i].Corner.Name)
		}
	}
	if !reflect.DeepEqual(plain, hooked) {
		t.Error("OnCorner hook changed the report")
	}

	mcPlain := runMC(t, inst, testMCOptions(b, nil))
	samples := 0
	mcHooked := runMC(t, inst, testMCOptions(b, func(o *MCOptions) {
		o.OnSample = func(s *Sample) {
			if s.Index != samples {
				t.Errorf("OnSample index %d out of order (want %d)", s.Index, samples)
			}
			samples++
		}
	}))
	if samples != len(mcPlain.Samples) {
		t.Errorf("OnSample fired %d times, want %d", samples, len(mcPlain.Samples))
	}
	if !reflect.DeepEqual(mcPlain, mcHooked) {
		t.Error("OnSample hook changed the result")
	}
}

// TestCancelStopsVariation: both modes surface core.ErrCancelled.
func TestCancelStopsVariation(t *testing.T) {
	inst, b := testInstance(t, 10, 8)
	cancel := func() bool { return true }
	if _, err := MonteCarlo(inst, testMCOptions(b, func(o *MCOptions) { o.Cancel = cancel })); err != core.ErrCancelled {
		t.Errorf("MonteCarlo cancel returned %v, want ErrCancelled", err)
	}
	if _, err := CornerSweep(inst, testCornerOptions(b, func(o *CornerOptions) { o.Cancel = cancel })); err != core.ErrCancelled {
		t.Errorf("CornerSweep cancel returned %v, want ErrCancelled", err)
	}
}

// TestDist pins the deterministic summary: index-order moments,
// nearest-rank quantiles, zero value on empty input.
func TestDist(t *testing.T) {
	if d := NewDist(nil); d != (Dist{}) {
		t.Errorf("empty dist = %+v, want zero", d)
	}
	d := NewDist([]float64{3, 1, 2, 5, 4})
	if d.N != 5 || d.Mean != 3 || d.Min != 1 || d.Max != 5 || d.Median != 3 {
		t.Errorf("dist = %+v", d)
	}
	if d.P90 != 5 {
		t.Errorf("P90 = %g, want nearest-rank 5", d.P90)
	}
	if want := math.Sqrt(2.5); d.Std != want {
		t.Errorf("Std = %g, want %g", d.Std, want)
	}
	one := NewDist([]float64{7})
	if one.Std != 0 || one.Mean != 7 || one.Median != 7 {
		t.Errorf("singleton dist = %+v", one)
	}
}

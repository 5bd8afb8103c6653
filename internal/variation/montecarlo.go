// Monte-Carlo yield analysis.
//
// MonteCarlo draws K technology perturbations from the seeded sampler,
// sizes each perturbed replica with the full OGWS solver, and reports
// per-sample results plus delay/area/noise distributions and the
// delay-constraint yield. The K solves fan out as plain, independent
// solves — each on its own goroutine, replica, and solver, several at
// once (see schedule) — so a run spreads over the cores instead of
// sharing one evaluator pass.
//
// Determinism contract (pinned by the oracle suite and FuzzVariation):
// same seed → byte-identical sample set; each fanned-out sample's result
// is bitwise equal to a solo solve of the identically-perturbed
// instance; and a distributed run that shards samples across workers
// reassembles the identical bytes, because every sample is a pure
// function of (instance, bounds, seed, index).
package variation

import (
	"math"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rc"
)

// Dist summarizes one scalar across samples: moments computed in sample
// order (deterministic fold), quantiles by nearest rank over a sorted
// copy. Std is the sample standard deviation (n−1), 0 for n < 2.
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Max    float64 `json:"max"`
}

// NewDist computes the summary of values; the zero Dist for an empty set.
func NewDist(values []float64) Dist {
	n := len(values)
	if n == 0 {
		return Dist{}
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	ss := 0.0
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return Dist{
		N: n, Mean: mean, Std: std,
		Min: sorted[0], Median: q(0.5), P90: q(0.9), Max: sorted[n-1],
	}
}

// MCOptions configures a Monte-Carlo run.
type MCOptions struct {
	// Samples is the number of perturbed replicas to size. Must be
	// positive — a zero-sample run has no distribution to report and is
	// rejected, not normalized.
	Samples int
	// Seed keys the sampler stream; the same seed always reproduces the
	// same sample set, byte for byte.
	Seed uint64
	// Sigmas are the per-parameter relative spreads (see Sigmas).
	Sigmas Sigmas
	// Bounds are the nominal bounds every sample is solved against; nil
	// derives them from the instance.
	Bounds *bench.Bounds
	// Solver knobs, normalized like core.Options.validate.
	MaxIterations int
	Epsilon       float64
	// Workers is each sample solve's parallel width; a value <= 0 means
	// width 1, and the fan-out runs GOMAXPROCS ÷ width samples at once,
	// so it owns the cores (see schedule). Results are bit-identical at
	// every width.
	Workers int
	// Solo runs the same per-sample solves one at a time. The result is
	// bit-identical to the fan-out — this is the oracle and benchmark
	// comparison path, not a results knob.
	Solo bool
	// Cancel is polled at solver iteration boundaries.
	Cancel func() bool
	// OnSample, when non-nil, observes each completed sample in sample
	// order after the run's solves finish. Purely observational.
	OnSample func(*Sample)
}

// Sample is one sized Monte-Carlo sample.
type Sample struct {
	Index   int          `json:"index"`
	Perturb rc.Perturb   `json:"perturb"`
	Result  *core.Result `json:"result"`
}

// MCResult is the Monte-Carlo outcome: every sample (in index order) and
// the Table-1-style distributional summary.
type MCResult struct {
	Samples []Sample `json:"samples"`
	// Delay/Area/Noise summarize the per-sample achieved DelayPs, Area,
	// and NoiseLinFF.
	Delay Dist `json:"delay"`
	Area  Dist `json:"area"`
	Noise Dist `json:"noise"`
	// Yield is the fraction of samples whose sized delay meets the bound
	// A0 (the delay-constraint yield); A0 echoes the bound used.
	Yield float64 `json:"yield"`
	A0    float64 `json:"a0"`
}

// MonteCarlo sizes Samples perturbed replicas of the instance and
// reports the distributional outcome. See the package comment for the
// determinism contract.
func MonteCarlo(inst *bench.Instance, opt MCOptions) (*MCResult, error) {
	perturbs, err := Perturbs(opt.Seed, opt.Samples, opt.Sigmas)
	if err != nil {
		return nil, err
	}
	bounds := resolveBounds(inst, opt.Bounds)
	results, err := SolveSamples(inst, bounds, perturbs, SolveOptions{
		MaxIterations: opt.MaxIterations,
		Epsilon:       opt.Epsilon,
		Workers:       opt.Workers,
		Solo:          opt.Solo,
		Cancel:        opt.Cancel,
	})
	if err != nil {
		return nil, err
	}
	samples := make([]Sample, len(perturbs))
	for r := range samples {
		samples[r] = Sample{Index: r, Perturb: perturbs[r], Result: results[r]}
	}
	out := Summarize(samples, bounds.A0)
	if opt.OnSample != nil {
		for r := range out.Samples {
			opt.OnSample(&out.Samples[r])
		}
	}
	return out, nil
}

// SolveOptions are the solver knobs of a SolveSamples call — the MCOptions
// subset a sample shard depends on (the sample set itself arrives as
// explicit perturbations). Workers and Solo schedule the solves exactly as
// in MCOptions: a Workers value <= 0 means width 1 per solve, and the
// fan-out owns the cores.
type SolveOptions struct {
	MaxIterations int
	Epsilon       float64
	Workers       int
	Solo          bool
	Cancel        func() bool
}

// SolveSamples sizes one perturbed replica per entry of perturbs against
// the base bounds (each sample under perturbedBounds for its own C
// scalar) and returns the results aligned with perturbs. This is the
// pure per-sample kernel both the local Monte-Carlo run and a farm
// worker's sample shard execute: the result of sample i is a function of
// (instance, bounds, knobs, perturbs[i]) only, never of which other
// samples share the call — so a shard of a larger sample set solves to
// the identical bytes the full local run produces for those indices.
func SolveSamples(inst *bench.Instance, bounds bench.Bounds, perturbs []rc.Perturb, opt SolveOptions) ([]*core.Result, error) {
	offset := constantOffset(inst)
	perSolve, width := schedule(opt.Workers, opt.Solo)
	results := make([]*core.Result, len(perturbs))
	err := solveEach(len(perturbs), width, opt.Cancel, func(r int) error {
		so := solverOptions(perturbedBounds(bounds, offset, perturbs[r]),
			opt.MaxIterations, opt.Epsilon, perSolve, false)
		so.Cancel = opt.Cancel
		res, err := solveSample(inst, perturbs[r], so)
		results[r] = res
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Summarize assembles the distributional report over solved samples
// (taken in slice order, which callers keep as index order) against the
// delay bound a0. Shared by the local run and the distributed
// reassembly path, so both produce the identical MCResult bytes from
// identical samples.
func Summarize(samples []Sample, a0 float64) *MCResult {
	out := &MCResult{Samples: samples, A0: a0}
	k := len(samples)
	delays := make([]float64, k)
	areas := make([]float64, k)
	noises := make([]float64, k)
	pass := 0
	for r, s := range samples {
		delays[r] = s.Result.DelayPs
		areas[r] = s.Result.Area
		noises[r] = s.Result.NoiseLinFF
		if s.Result.DelayPs <= a0 {
			pass++
		}
	}
	out.Delay = NewDist(delays)
	out.Area = NewDist(areas)
	out.Noise = NewDist(noises)
	if k > 0 {
		out.Yield = float64(pass) / float64(k)
	}
	return out
}

// solveSample sizes one perturbed replica with one plain solver — the
// whole of a sample's work, on whichever goroutine the fan-out gives it.
func solveSample(inst *bench.Instance, p rc.Perturb, sopt core.Options) (*core.Result, error) {
	ev, err := inst.PerturbedReplica(p)
	if err != nil {
		return nil, err
	}
	solver, err := core.NewSolver(ev, sopt)
	if err != nil {
		return nil, err
	}
	defer solver.Close()
	return solver.RunFromDual(inst.Eval.X, nil)
}

// Monte-Carlo yield analysis.
//
// MonteCarlo draws K technology perturbations from the seeded sampler
// (drawBatch plans them as one independent batch of cells), sizes each
// perturbed replica with the full OGWS solver, and reports per-sample
// results plus delay/area/noise distributions and the delay-constraint
// yield. The local runner fans the K serial solves out, one per core; a
// farm runner cuts the batch into one shard per live worker.
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
	// Workers is ignored: every sample solves serially, and the local
	// runner solves GOMAXPROCS samples at once.
	//
	// Deprecated: the end-to-end benchmark module still sets it; it goes
	// with that module's next change.
	Workers int
	// Solo runs the same per-sample solves one at a time. The result is
	// bit-identical to the fan-out — this is the oracle and benchmark
	// comparison path, not a results knob.
	Solo bool
	// Cancel is polled at solver iteration boundaries.
	Cancel func() bool
	// OnSample, when non-nil, observes each sample as it lands: in sample
	// order, one call at a time, through the local runner, and as the
	// shards stream in through a farm runner. Purely observational.
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

// MonteCarlo is MonteCarloOn with the local runner, inst.RunPlan.
func MonteCarlo(inst *bench.Instance, opt MCOptions) (*MCResult, error) {
	return MonteCarloOn(inst, opt, inst.RunPlan)
}

// MonteCarloOn sizes Samples perturbed replicas of the instance with the
// given runner and reports the distributional outcome. See the package
// comment for the determinism contract.
func MonteCarloOn(inst *bench.Instance, opt MCOptions, run bench.Runner) (*MCResult, error) {
	base, samples, batch, err := drawBatch(inst, opt)
	if err != nil {
		return nil, err
	}
	sched := bench.Schedule{Cancel: opt.Cancel}
	if opt.Solo {
		sched.Concurrent = 1
	}
	if opt.OnSample != nil {
		sched.Observe = func(k int, s *bench.Solved) {
			samples[k].Result = s.Result
			opt.OnSample(&samples[k])
		}
	}
	solved, err := run(bench.Plan{batch}, sched)
	if err != nil {
		return nil, err
	}
	for k, s := range solved {
		samples[k].Result = s.Result
	}
	return summarize(samples, base.A0), nil
}

// drawBatch plans a run without solving it: the resolved base bounds, every
// sample in index order with its perturbation (Result still nil), and the
// run's one independent batch, whose cell i solves sample i against its
// perturbed bounds from the instance's initial sizes. Sample i is a pure
// function of (instance, bounds, seed, i, sigmas), so however a runner
// cuts the batch, it solves the identical cells.
func drawBatch(inst *bench.Instance, opt MCOptions) (bench.Bounds, []Sample, bench.Batch, error) {
	perturbs, err := drawPerturbs(opt.Seed, opt.Samples, opt.Sigmas)
	if err != nil {
		return bench.Bounds{}, nil, bench.Batch{}, err
	}
	base := resolveBounds(inst, opt.Bounds)
	offset := constantOffset(inst)
	samples := make([]Sample, len(perturbs))
	batch := bench.Batch{
		Seed:          append([]float64(nil), inst.Eval.X...),
		MaxIterations: opt.MaxIterations,
		Epsilon:       opt.Epsilon,
		Cells:         make([]bench.Cell, len(perturbs)),
	}
	for r, p := range perturbs {
		samples[r] = Sample{Index: r, Perturb: p}
		batch.Cells[r] = bench.Cell{Index: r, Bounds: perturbedBounds(base, offset, p), Perturb: &p}
	}
	return base, samples, batch, nil
}

// summarize assembles the distributional report over solved samples
// (taken in slice order, which is index order) against the delay bound
// a0.
func summarize(samples []Sample, a0 float64) *MCResult {
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

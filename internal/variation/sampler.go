// Seeded technology-parameter sampling.
//
// The Monte-Carlo mode draws K perturbed replicas of one instance; the
// whole statistical layer is only as trustworthy as the sample set is
// reproducible, so the sampler is a pure function: perturbation k's
// scalars depend on nothing but (seed, k, the sigmas). The stream
// discipline is internal/fault's — one splitmix64 evaluation per draw,
// keyed by a per-(stream, event) mix of the seed — so samples can be
// computed in any order, on any machine, in any process, without a
// shared generator cursor. Same seed → byte-identical sample set, always.
package variation

import (
	"fmt"
	"math"

	"repro/internal/rc"
)

// Sigmas is the relative spread of each technology parameter: every
// sample multiplies the nominal constants by exp(σ·z) with z a standard
// normal drawn from the seeded stream — a lognormal factor with median
// 1, the usual process-variation model. A zero sigma pins its parameter
// exactly at nominal (the factor is exactly 1.0).
type Sigmas struct {
	R         float64 `json:"r,omitempty"`
	C         float64 `json:"c,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// Validate rejects negative, NaN, or infinite sigmas — the
// core.Options.validate discipline: NaN slides through `< 0` checks, so
// every comparison is NaN-aware, and rejection happens before any draw
// so a bad sigma can never half-build a sample set.
func (s Sigmas) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"R", s.R}, {"C", s.C}, {"Threshold", s.Threshold}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("variation: sigma %s must be finite and non-negative, got %g", f.name, f.v)
		}
	}
	return nil
}

// splitmix64 is the finalizer used across the repo (bench geometry,
// fault plans) — one evaluation per draw, no sequential state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the uniform [0,1) variate of (seed, sample, stream) —
// fault.Plan's stream discipline with the parameter stream playing the
// rule index and the sample index the event counter.
func draw(seed, sample, stream uint64) float64 {
	x := splitmix64(seed ^ splitmix64(stream<<32^sample))
	return float64(x>>11) / (1 << 53)
}

// gauss returns the standard-normal variate of (seed, sample, param) via
// Box-Muller over two stream draws. 1−u₁ ∈ (0,1] keeps the log finite.
func gauss(seed, sample, param uint64) float64 {
	u1 := draw(seed, sample, 2*param)
	u2 := draw(seed, sample, 2*param+1)
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// drawPerturbs draws the k-sample perturbation set for (seed, sigmas):
// sample i's scalars are exp(σ·z) with independent z per parameter. The
// result is a pure function of the arguments — the determinism anchor
// every Monte-Carlo bit-identity contract (rerun, fan-out vs solo,
// distributed vs local) reduces to.
func drawPerturbs(seed uint64, k int, s Sigmas) ([]rc.Perturb, error) {
	if k <= 0 {
		return nil, fmt.Errorf("variation: sample count must be positive, got %d", k)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := make([]rc.Perturb, k)
	for i := range out {
		si := uint64(i)
		out[i] = rc.Perturb{
			R:         math.Exp(s.R * gauss(seed, si, 0)),
			C:         math.Exp(s.C * gauss(seed, si, 1)),
			Threshold: math.Exp(s.Threshold * gauss(seed, si, 2)),
		}
	}
	return out, nil
}

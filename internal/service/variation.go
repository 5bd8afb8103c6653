package service

import (
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/variation"
)

// Process-variation endpoints: POST /montecarlo (seeded Monte-Carlo
// yield analysis) and the corners option on POST /sweep (the standard
// five-corner enumeration). Both run the internal/variation modes
// against a cached instance, stream per-sample / per-corner progress on
// the circuit's watch log, and persist finished runs for dedup (same
// seed → same bytes, so a repeat answers from the store without
// solving). Both dispatch to the farm when workers are live — with
// bit-identical results either way, the same contract solves and sweeps
// carry.

// Store key prefixes for the variation modes (see persist.go for the
// base layout).
const (
	mcPrefix      = "mc/"
	cornersPrefix = "corners/"
)

// storedMC is the persisted outcome of one Monte-Carlo run, keyed by
// mcKey — the dedup payload POST /montecarlo returns without solving.
type storedMC struct {
	stamp
	CircuitKey string              `json:"circuit_key"`
	Circuit    string              `json:"circuit"`
	Result     *variation.MCResult `json:"result"`
}

// storedCorners is the persisted outcome of one corner enumeration,
// keyed by cornersKey.
type storedCorners struct {
	stamp
	CircuitKey string                  `json:"circuit_key"`
	Circuit    string                  `json:"circuit"`
	Report     *variation.CornerReport `json:"report"`
}

// montecarloRequest runs a Monte-Carlo yield analysis against a cached
// instance: samples perturbed replicas drawn from the seeded sampler,
// each solved to completion, reported with delay/area/noise
// distributions and the delay-constraint yield. The target's a0/noise/
// power overrides resolve the base bounds exactly as a solve request (the
// samples fan out GOMAXPROCS at a time, so the run owns the cores); sigmas
// are the lognormal spreads of the R/C/threshold perturbations. Same seed
// → byte-identical response, locally or distributed.
type montecarloRequest struct {
	target
	// Samples is the number of perturbed replicas (required, positive);
	// Seed the sampler seed; Sigmas the perturbation spreads (all three
	// zero = every sample nominal).
	Samples int              `json:"samples"`
	Seed    uint64           `json:"seed,omitempty"`
	Sigmas  variation.Sigmas `json:"sigmas"`
	// NoDedup forces the run even when the store already holds this exact
	// run (same circuit, bounds, seed, samples, sigmas, knobs).
	NoDedup bool `json:"no_dedup,omitempty"`
}

// montecarloResponse is the POST /montecarlo payload.
type montecarloResponse struct {
	Key      string  `json:"key"`
	Circuit  string  `json:"circuit"`
	SolveSec float64 `json:"solve_sec"`
	// Dedup marks a response answered from the durable store without
	// running; Result is byte-for-byte the original run's.
	Dedup  bool                `json:"dedup,omitempty"`
	Result *variation.MCResult `json:"result"`
}

func (s *Server) handleMonteCarlo(w http.ResponseWriter, r *http.Request) {
	var req montecarloRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRunRequestBytes)
	if !decode(w, r, "montecarlo", &req) {
		return
	}
	e, bounds, ok := s.resolve(w, "montecarlo", &req.target)
	if !ok {
		return
	}
	if req.Samples <= 0 {
		writeError(w, http.StatusBadRequest, "montecarlo: samples must be positive, got %d", req.Samples)
		return
	}
	if overSolveCap(w, "montecarlo", req.Samples) {
		return
	}
	if err := req.Sigmas.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "montecarlo: %v", err)
		return
	}
	rn, ok := s.begin(w, r, "montecarlo", e)
	if !ok {
		return
	}
	defer rn.end()

	// Dedup: the run's bits are a pure function of (circuit, bounds,
	// seed, samples, sigmas, knobs) — scheduling excluded — so a stored
	// run answers a repeat byte-for-byte without solving.
	mk := mcKey(e.key, bounds, req.Samples, req.Seed, req.Sigmas, req.MaxIterations, req.Epsilon)
	resp := montecarloResponse{Key: e.key, Circuit: e.name}
	if !req.NoDedup {
		if hit := lookup[storedMC](s, mcPrefix+mk); hit != nil && hit.Result != nil {
			resp.Dedup, resp.Result = true, hit.Result
			rn.finish(resp, progressEvent{
				Kind: "mc_done", Dedup: true,
				Iterations: len(hit.Result.Samples), Yield: hit.Result.Yield,
			}, s.stats.addDedupHit)
			return
		}
	}
	rn.emit(progressEvent{Kind: "mc_start", Iterations: req.Samples})

	onSample := func(sm *variation.Sample) {
		rn.emit(progressEvent{
			Kind: "sample", Sample: sm.Index,
			Iterations: sm.Result.Iterations, Converged: sm.Result.Converged,
			Gap: sm.Result.Gap, Area: sm.Result.Area,
		})
	}
	opt := variation.MCOptions{
		Samples:       req.Samples,
		Seed:          req.Seed,
		Sigmas:        req.Sigmas,
		Bounds:        &bounds,
		MaxIterations: req.MaxIterations,
		Epsilon:       req.Epsilon,
		Cancel:        rn.cancelled,
		OnSample:      onSample,
	}
	start := time.Now()
	res, err := variation.MonteCarloOn(e.inst, opt, rn.runner())
	if err != nil {
		rn.fail(err)
		return
	}
	sec := time.Since(start).Seconds()
	resp.SolveSec, resp.Result = sec, res
	rn.finish(resp, progressEvent{
		Kind: "mc_done", Iterations: len(res.Samples), Yield: res.Yield, SolveSec: sec,
	}, func() {
		s.storePut(mcPrefix+mk, storedMC{stamp: thisBuild, CircuitKey: e.key, Circuit: e.name, Result: res})
		s.stats.addMonteCarlo(sec, len(res.Samples))
	})
}

// cornersResponse is the buffered payload of a corners sweep.
type cornersResponse struct {
	Key      string                  `json:"key"`
	Circuit  string                  `json:"circuit"`
	SolveSec float64                 `json:"solve_sec"`
	Dedup    bool                    `json:"dedup,omitempty"`
	Report   *variation.CornerReport `json:"report"`
}

// cornersSummary is the final NDJSON line of a streamed corners sweep.
type cornersSummary struct {
	Done     bool           `json:"done"`
	Key      string         `json:"key"`
	Circuit  string         `json:"circuit"`
	Corners  int            `json:"corners"`
	Nominal  *core.Result   `json:"nominal"`
	Delay    variation.Dist `json:"delay"`
	SolveSec float64        `json:"solve_sec"`
}

// handleCorners serves a sweep request with corners set: the standard
// five-corner enumeration (nominal solve plus one warm-started solve
// per corner) instead of a bounds grid. Streaming emits one CornerCell
// per NDJSON line, then a summary with the nominal solve and the
// cross-corner delay distribution.
func (s *Server) handleCorners(w http.ResponseWriter, r *http.Request, req *sweepRequest, e *entry, bounds bench.Bounds) {
	rn, ok := s.begin(w, r, "corners", e)
	if !ok {
		return
	}
	defer rn.end()

	corners := variation.StandardCorners()
	ck := cornersKey(e.key, bounds, corners, req.Cold, req.PrimalOnly, req.S1, req.MaxIterations, req.Epsilon)
	if req.Stream {
		rn.stream()
	} else if hit := lookup[storedCorners](s, cornersPrefix+ck); hit != nil && hit.Report != nil {
		rn.finish(cornersResponse{Key: e.key, Circuit: e.name, Dedup: true, Report: hit.Report}, progressEvent{
			Kind: "corners_done", Dedup: true, Iterations: len(hit.Report.Cells),
		}, s.stats.addDedupHit)
		return
	}
	opt := variation.CornerOptions{
		Bounds:        &bounds,
		MaxIterations: req.MaxIterations,
		Epsilon:       req.Epsilon,
		Cold:          req.Cold,
		PrimalOnly:    req.PrimalOnly,
		ColdLRS:       req.S1,
		Cancel:        rn.cancelled,
		OnCorner: func(c *variation.CornerCell) {
			if rn.nw != nil {
				rn.nw.writeLine(c)
			}
			rn.emit(progressEvent{
				Kind: "corner", Corner: c.Corner.Name,
				Iterations: c.Result.Iterations, Converged: c.Result.Converged,
				Gap: c.Result.Gap, Area: c.Result.Area,
			})
		},
	}
	rn.emit(progressEvent{Kind: "corners_start", Iterations: len(corners)})
	start := time.Now()
	rep, err := variation.CornerSweepOn(e.inst, opt, rn.runner())
	if err != nil {
		rn.fail(err)
		return
	}
	sec := time.Since(start).Seconds()
	var out any = cornersResponse{Key: e.key, Circuit: e.name, SolveSec: sec, Report: rep}
	if req.Stream {
		out = cornersSummary{
			Done: true, Key: e.key, Circuit: e.name,
			Corners: len(rep.Cells), Nominal: rep.Nominal, Delay: rep.Delay, SolveSec: sec,
		}
	}
	rn.finish(out, progressEvent{Kind: "corners_done", Iterations: len(rep.Cells), SolveSec: sec}, func() {
		s.storePut(cornersPrefix+ck, storedCorners{stamp: thisBuild, CircuitKey: e.key, Circuit: e.name, Report: rep})
		s.stats.addCorners(sec, len(rep.Cells))
	})
}

package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/variation"
)

// Process-variation endpoints: POST /montecarlo (seeded Monte-Carlo
// yield analysis) and the corners option on POST /sweep (the standard
// five-corner enumeration). Both run the internal/variation modes
// against a cached instance, stream per-sample / per-corner progress on
// the circuit's watch log, persist finished runs for dedup (same seed →
// same bytes, so a repeat answers from the store without solving), and
// dispatch to the farm when workers are live — with bit-identical
// results either way, the same contract solves and sweeps carry.

// Store key prefixes for the variation modes (see persist.go for the
// base layout).
const (
	mcPrefix      = "mc/"
	cornersPrefix = "corners/"
)

// storedMC is the persisted outcome of one Monte-Carlo run, keyed by
// mcKey — the dedup payload POST /montecarlo returns without solving.
type storedMC struct {
	CircuitKey string              `json:"circuit_key"`
	Circuit    string              `json:"circuit"`
	Result     *variation.MCResult `json:"result"`
}

// storedCorners is the persisted outcome of one corner enumeration,
// keyed by cornersKey.
type storedCorners struct {
	CircuitKey string                  `json:"circuit_key"`
	Circuit    string                  `json:"circuit"`
	Report     *variation.CornerReport `json:"report"`
}

// mcKey hashes everything that determines a Monte-Carlo run's bits: the
// circuit content hash, the resolved bounds, the sample count, seed, and
// sigmas, and the normalized solver knobs. Workers is deliberately
// excluded — the run is bit-identical at every fan-out width (the
// variation oracle pins it) — so the same run re-requested at a
// different width dedups.
func mcKey(circuitKey string, b bench.Bounds, samples int, seed uint64, sg variation.Sigmas, maxIter int, epsilon float64) string {
	maxIter, epsilon = core.Budget(maxIter, epsilon)
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "mc/v1|%s|", circuitKey)
	put(math.Float64bits(b.A0))
	put(math.Float64bits(b.NoiseBound))
	put(math.Float64bits(b.PowerBound))
	put(uint64(samples))
	put(seed)
	put(math.Float64bits(sg.R))
	put(math.Float64bits(sg.C))
	put(math.Float64bits(sg.Threshold))
	put(uint64(maxIter))
	put(math.Float64bits(epsilon))
	return hex.EncodeToString(h.Sum(nil))
}

// cornersKey is the corner-enumeration analogue of mcKey: circuit,
// resolved bounds, the corner list itself, the warm/cold schedule knobs
// (they are pinned bit-identical under ColdLRS+PrimalOnly but are an
// explicit request surface, so they hash conservatively), and the
// normalized solver knobs. Flag bit 8 belonged to the retired full-pass
// request field and is never set, so every key stored without it keeps
// its bytes.
func cornersKey(circuitKey string, b bench.Bounds, corners []variation.Corner, cold, primalOnly, coldLRS bool, maxIter int, epsilon float64) string {
	maxIter, epsilon = core.Budget(maxIter, epsilon)
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "corners/v1|%s|", circuitKey)
	put(math.Float64bits(b.A0))
	put(math.Float64bits(b.NoiseBound))
	put(math.Float64bits(b.PowerBound))
	put(uint64(len(corners)))
	for _, c := range corners {
		fmt.Fprintf(h, "%s|", c.Name)
		put(math.Float64bits(c.R))
		put(math.Float64bits(c.C))
		put(math.Float64bits(c.Threshold))
	}
	flags := uint64(0)
	if cold {
		flags |= 1
	}
	if primalOnly {
		flags |= 2
	}
	if coldLRS {
		flags |= 4
	}
	put(flags)
	put(uint64(maxIter))
	put(math.Float64bits(epsilon))
	return hex.EncodeToString(h.Sum(nil))
}

// montecarloRequest runs a Monte-Carlo yield analysis against a cached
// instance: samples perturbed replicas drawn from the seeded sampler,
// each solved to completion, reported with delay/area/noise
// distributions and the delay-constraint yield. The a0/noise/power
// overrides resolve the base bounds exactly as a solve request; sigmas
// are the lognormal spreads of the R/C/threshold perturbations. Same
// seed → byte-identical response, locally or distributed.
type montecarloRequest struct {
	Key string `json:"key"`
	// Base-bounds overrides: 0 = derived, >0 = override, <0 = disable.
	A0    float64 `json:"a0,omitempty"`
	Noise float64 `json:"noise,omitempty"`
	Power float64 `json:"power,omitempty"`
	// Samples is the number of perturbed replicas (required, positive);
	// Seed the sampler seed; Sigmas the perturbation spreads (all three
	// zero = every sample nominal).
	Samples int              `json:"samples"`
	Seed    uint64           `json:"seed,omitempty"`
	Sigmas  variation.Sigmas `json:"sigmas"`
	// Solver knobs; 0 keeps the defaults. Workers is each sample solve's
	// width: 0 = server default, negative = width 1; the samples fan out
	// GOMAXPROCS ÷ width at a time, so the run owns the cores — results
	// bit-identical at every width.
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Workers       int     `json:"workers,omitempty"`
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
	if err := decode(r, &req); err != nil {
		writeError(w, decodeStatus(err), "bad montecarlo request: %v", err)
		return
	}
	e := s.cache.get(req.Key)
	if e == nil {
		writeError(w, http.StatusNotFound, "montecarlo: no cached circuit for key %q (register it first; it may have been evicted)", req.Key)
		return
	}
	if req.Samples == 0 {
		req.Samples = s.opt.DefaultMCSamples
	}
	if req.Seed == 0 {
		req.Seed = s.opt.DefaultMCSeed
	}
	if req.Samples <= 0 {
		writeError(w, http.StatusBadRequest, "montecarlo: samples must be positive, got %d", req.Samples)
		return
	}
	if err := req.Sigmas.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "montecarlo: %v", err)
		return
	}
	bounds, err := resolveBounds(e.bounds, req.A0, req.Noise, req.Power)
	if err != nil {
		writeError(w, http.StatusBadRequest, "montecarlo: %v", err)
		return
	}

	// Overload gate, then the standard lock order (circuit mutex before
	// the global solve slot) — see handleSolve.
	if !s.admitSolve(w, r, "montecarlo") {
		return
	}
	defer s.releaseSolve()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !s.acquireSolveSlot(w, r) {
		return
	}
	defer func() { <-s.sem }()

	wlog := s.watchLog(e.key)
	solveID := s.nextSolveID()

	// Dedup: the run's bits are a pure function of (circuit, bounds,
	// seed, samples, sigmas, knobs) — scheduling excluded — so a stored
	// run answers a repeat byte-for-byte without solving.
	mk := mcKey(e.key, bounds, req.Samples, req.Seed, req.Sigmas, req.MaxIterations, req.Epsilon)
	if !req.NoDedup {
		if hit := s.lookupMC(mk); hit != nil && hit.Result != nil {
			s.stats.addDedupHit()
			s.emit(wlog, progressEvent{
				Kind: "mc_done", Solve: solveID, Dedup: true,
				Iterations: len(hit.Result.Samples), Yield: hit.Result.Yield,
			})
			writeJSON(w, http.StatusOK, montecarloResponse{
				Key: e.key, Circuit: e.name, Dedup: true, Result: hit.Result,
			})
			return
		}
	}
	s.emit(wlog, progressEvent{Kind: "mc_start", Solve: solveID, Iterations: req.Samples})

	onSample := func(sm *variation.Sample) {
		s.emit(wlog, progressEvent{
			Kind: "sample", Solve: solveID, Sample: sm.Index,
			Iterations: sm.Result.Iterations, Converged: sm.Result.Converged,
			Gap: sm.Result.Gap, Area: sm.Result.Area,
		})
	}

	start := time.Now()
	var res *variation.MCResult
	if s.farmReady() {
		// Farm dispatch: the sample range fans out as per-worker shards;
		// the samples reassemble by global index and the shared summarizer
		// rebuilds the exact local report — distributed ≡ local bytes.
		samples, ferr := s.opt.Farm.MonteCarlo(r.Context(), e.farmSpec, api.MonteCarloJob{
			Bounds:        bounds,
			Seed:          req.Seed,
			Sigmas:        req.Sigmas,
			Lo:            0,
			Hi:            req.Samples,
			MaxIterations: req.MaxIterations,
			Epsilon:       req.Epsilon,
		}, onSample)
		if ferr == nil {
			res = variation.Summarize(samples, bounds.A0)
		}
		err = ferr
	} else {
		workers := req.Workers
		if workers == 0 {
			workers = s.opt.DefaultWorkers
		}
		res, err = variation.MonteCarlo(e.inst, variation.MCOptions{
			Samples:       req.Samples,
			Seed:          req.Seed,
			Sigmas:        req.Sigmas,
			Bounds:        &bounds,
			MaxIterations: req.MaxIterations,
			Epsilon:       req.Epsilon,
			Workers:       workers,
			Cancel:        func() bool { return r.Context().Err() != nil },
			OnSample:      onSample,
		})
	}
	if err != nil {
		s.emit(wlog, progressEvent{Kind: "error", Solve: solveID, Error: err.Error()})
		if errors.Is(err, core.ErrCancelled) || r.Context().Err() != nil {
			s.stats.addSolveCancelled()
			writeError(w, http.StatusServiceUnavailable, "montecarlo: cancelled: client disconnected")
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "montecarlo: %v", err)
		return
	}
	sec := time.Since(start).Seconds()
	body, ok := s.encodeOr422(w, wlog, solveID, montecarloResponse{
		Key: e.key, Circuit: e.name, SolveSec: sec, Result: res,
	})
	if !ok {
		return
	}
	s.storePut(mcPrefix+mk, storedMC{CircuitKey: e.key, Circuit: e.name, Result: res})
	s.emit(wlog, progressEvent{
		Kind: "mc_done", Solve: solveID,
		Iterations: len(res.Samples), Yield: res.Yield, SolveSec: sec,
	})
	s.stats.addMonteCarlo(sec, len(res.Samples))
	writeBody(w, http.StatusOK, body)
}

// lookupMC returns the stored Monte-Carlo run for key, or nil.
func (s *Server) lookupMC(key string) *storedMC {
	if s.opt.Store == nil {
		return nil
	}
	var v storedMC
	ok, err := s.opt.Store.Get(mcPrefix+key, &v)
	if err != nil {
		s.stats.addStoreError()
		return nil
	}
	if !ok {
		return nil
	}
	return &v
}

// lookupCorners returns the stored corner enumeration for key, or nil.
func (s *Server) lookupCorners(key string) *storedCorners {
	if s.opt.Store == nil {
		return nil
	}
	var v storedCorners
	ok, err := s.opt.Store.Get(cornersPrefix+key, &v)
	if err != nil {
		s.stats.addStoreError()
		return nil
	}
	if !ok {
		return nil
	}
	return &v
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
func (s *Server) handleCorners(w http.ResponseWriter, r *http.Request, req *sweepRequest, e *entry) {
	bounds, err := resolveBounds(e.bounds, req.A0, req.Noise, req.Power)
	if err != nil {
		writeError(w, http.StatusBadRequest, "corners: %v", err)
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.opt.DefaultWorkers
	}

	if !s.admitSolve(w, r, "sweep") {
		return
	}
	defer s.releaseSolve()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !s.acquireSolveSlot(w, r) {
		return
	}
	defer func() { <-s.sem }()

	wlog := s.watchLog(e.key)
	solveID := s.nextSolveID()

	corners := variation.StandardCorners()
	ck := cornersKey(e.key, bounds, corners, req.Cold, req.PrimalOnly, req.S1, req.MaxIterations, req.Epsilon)
	if !req.Stream {
		if hit := s.lookupCorners(ck); hit != nil && hit.Report != nil {
			s.stats.addDedupHit()
			s.emit(wlog, progressEvent{
				Kind: "corners_done", Solve: solveID, Dedup: true,
				Iterations: len(hit.Report.Cells),
			})
			writeJSON(w, http.StatusOK, cornersResponse{
				Key: e.key, Circuit: e.name, Dedup: true, Report: hit.Report,
			})
			return
		}
	}

	var nw *ndjsonWriter
	if req.Stream {
		nw = &ndjsonWriter{w: w}
	}
	opt := variation.CornerOptions{
		Corners:       corners,
		Bounds:        &bounds,
		MaxIterations: req.MaxIterations,
		Epsilon:       req.Epsilon,
		Workers:       workers,
		Cold:          req.Cold,
		PrimalOnly:    req.PrimalOnly,
		ColdLRS:       req.S1,
		Cancel:        func() bool { return r.Context().Err() != nil },
		OnCorner: func(c *variation.CornerCell) {
			if nw != nil {
				nw.writeLine(c)
			}
			s.emit(wlog, progressEvent{
				Kind: "corner", Solve: solveID, Corner: c.Corner.Name,
				Iterations: c.Result.Iterations, Converged: c.Result.Converged,
				Gap: c.Result.Gap, Area: c.Result.Area,
			})
		},
	}
	s.emit(wlog, progressEvent{Kind: "corners_start", Solve: solveID, Iterations: len(corners)})
	start := time.Now()
	rep, err := variation.CornerSweep(e.inst, opt)
	if err != nil {
		s.emit(wlog, progressEvent{Kind: "error", Solve: solveID, Error: err.Error()})
		if errors.Is(err, core.ErrCancelled) || r.Context().Err() != nil {
			s.stats.addSolveCancelled()
			if nw == nil || !nw.started() {
				writeError(w, http.StatusServiceUnavailable, "corners: cancelled: client disconnected")
			} else {
				nw.writeLine(errorResponse{Error: err.Error()})
			}
			return
		}
		if nw == nil || !nw.started() {
			writeError(w, http.StatusUnprocessableEntity, "corners: %v", err)
		} else {
			nw.writeLine(errorResponse{Error: err.Error()})
		}
		return
	}
	sec := time.Since(start).Seconds()
	var body []byte
	if nw == nil {
		var ok bool
		body, ok = s.encodeOr422(w, wlog, solveID, cornersResponse{
			Key: e.key, Circuit: e.name, SolveSec: sec, Report: rep,
		})
		if !ok {
			return
		}
	}
	s.storePut(cornersPrefix+ck, storedCorners{CircuitKey: e.key, Circuit: e.name, Report: rep})
	s.emit(wlog, progressEvent{
		Kind: "corners_done", Solve: solveID,
		Iterations: len(rep.Cells), SolveSec: sec,
	})
	s.stats.addCorners(sec, len(rep.Cells))
	if nw != nil {
		nw.writeLine(cornersSummary{
			Done: true, Key: e.key, Circuit: e.name,
			Corners: len(rep.Cells), Nominal: rep.Nominal, Delay: rep.Delay, SolveSec: sec,
		})
		return
	}
	writeBody(w, http.StatusOK, body)
}

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/farm"
	"repro/internal/farm/api"
	"repro/internal/store"
)

// Options configures a Server. The zero value serves with the defaults
// below. Three limits are constants rather than options: maxRequestBytes
// on request bodies, maxSavedResults on the named results kept per
// circuit, and maxRunSolves on the solves one request may ask for.
type Options struct {
	// CacheSize bounds the instance cache (LRU over netlist/spec hashes);
	// default 8 instances.
	CacheSize int
	// MaxConcurrentSolves bounds how many solves/sweeps run at once across
	// all circuits (each additionally bounded to one per circuit by the
	// per-instance lock); default runtime.GOMAXPROCS(0).
	MaxConcurrentSolves int
	// MaxQueuedSolves bounds the total solve/sweep requests admitted but
	// not yet finished (running plus queued on circuit locks and the
	// solve semaphore). Beyond it requests are shed immediately with
	// 503 + Retry-After instead of queuing without bound; default
	// 4 × MaxConcurrentSolves.
	MaxQueuedSolves int
	// StoreProbeInterval is how often a server whose store writes keep
	// failing (degraded, read-only store mode) lets one write through to
	// probe for recovery; default 15s. See storeGate.
	StoreProbeInterval time.Duration
	// Now is the clock the degraded-mode probe schedule reads,
	// injectable so tests drive recovery deterministically; default
	// time.Now.
	Now func() time.Time
	// Farm, when non-nil, is the embedded distributed-sizing coordinator
	// (ogwsd -coordinator). Solves and sweeps are dispatched to the worker
	// fleet whenever at least one worker is live, and run locally
	// otherwise — with bit-identical results either way, which is the
	// farm's determinism contract (see internal/farm).
	Farm *farm.Coordinator
	// Store, when non-nil, is the durable result store (ogwsd -data). On
	// boot the server reloads every persisted circuit and saved result
	// from it, so warm_from chains survive restarts; thereafter every
	// registration, save_as, and finished solve is persisted, and a
	// /solve whose resolved inputs hash to an already-stored solve is
	// answered from the store without running (dedup; see solveKey).
	// Persistence never changes solved bits: the stored result IS the
	// bytes the original solve returned.
	Store *store.Store
}

const (
	// maxRequestBytes caps request bodies (netlist uploads dominate).
	maxRequestBytes = 16 << 20
	// maxSavedResults bounds the named warm-start results kept per cached
	// instance, the oldest evicted first.
	maxSavedResults = 32
	// maxRunSolves caps the Monte-Carlo samples or bounds-grid cells of one
	// request. Every solve keeps its result vector, so at the cap a run on
	// c7552 holds about 320 MB.
	maxRunSolves = 4096
)

func (o *Options) fill() {
	if o.CacheSize <= 0 {
		o.CacheSize = 8
	}
	if o.MaxConcurrentSolves <= 0 {
		o.MaxConcurrentSolves = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueuedSolves <= 0 {
		o.MaxQueuedSolves = 4 * o.MaxConcurrentSolves
	}
	if o.StoreProbeInterval <= 0 {
		o.StoreProbeInterval = 15 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Server is the ogwsd HTTP handler: an instance cache plus the solver and
// sweep entry points behind a JSON API. Create with New; Server implements
// http.Handler.
type Server struct {
	opt      Options
	cache    *instanceCache
	stats    serverStats
	sem      chan struct{}
	mux      *http.ServeMux
	hub      *delta.Hub
	solveSeq atomic.Int64 // numbers runs for the watch stream

	// Resilience state (see resilience.go): the admitted-request count
	// behind the overload gate, the drain latch, and the degraded-mode
	// gate in front of the durable store.
	inflight atomic.Int64
	draining atomic.Bool
	gate     storeGate
}

// New builds a Server with the given options. With Options.Store set,
// construction replays the store: persisted circuits are rebuilt into the
// cache and saved results re-attached before the first request lands.
func New(opt Options) *Server {
	opt.fill()
	hub := delta.NewHub(delta.DefaultRetain)
	s := &Server{
		opt:   opt,
		cache: newInstanceCache(opt.CacheSize, hub.Remove),
		sem:   make(chan struct{}, opt.MaxConcurrentSolves),
		mux:   http.NewServeMux(),
		hub:   hub,
	}
	s.gate.probe = opt.StoreProbeInterval
	s.mux.HandleFunc("POST /circuits", s.handleRegister)
	s.mux.HandleFunc("GET /circuits", s.handleListCircuits)
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("POST /montecarlo", s.handleMonteCarlo)
	s.mux.HandleFunc("GET /results", s.handleResults)
	s.mux.HandleFunc("GET /watch", s.handleWatch)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.reloadFromStore()
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// errorResponse is the uniform error payload of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// marshalBody encodes a response body one JSON element per line, without
// indentation: about 60% of the bytes of a tab-indented body, and still
// line-oriented, with the "key": value spacing line-matching clients read.
func marshalBody(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "")
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	return append(data, '\n'), nil
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // the connection is gone, nothing to do
}

// writeJSON writes v with status code. The body is encoded before the
// status goes out, so a value JSON cannot represent answers 422 with an
// error body, not the requested status with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeBody(w, code, body)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode parses a JSON request body strictly: unknown fields are rejected
// so a typoed knob fails loudly instead of silently solving with defaults.
// A body that fails answers 413 when it is larger than
// maxRequestBytes, so the client learns the size limit rather than
// hunting for a JSON mistake, and 400 otherwise. decode reports false
// when the response is written.
func decode(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, "bad %s request: %v", what, err)
	return false
}

// gridRegister selects a bench.GridInstance mesh — the deterministic
// coupled grid the sweep engine's golden fixture is generated from, and
// the circuit the farm smoke distributes. Grid meshes skip the netlist
// pipeline; their bounds are the mesh's own calibration (uniform-size
// critical path, 40% headroom), not bench.DeriveBounds.
type gridRegister struct {
	Width   int  `json:"width"`
	Layers  int  `json:"layers"`
	Coupled bool `json:"coupled,omitempty"`
}

// registerRequest uploads one circuit. Exactly one of synthetic (an
// ISCAS85 spec name, e.g. "c432"), netlist (ISCAS85 .bench text), or grid
// (a synthetic mesh) must be set; seed and wire_length_scale feed the
// deterministic geometry pipeline (see bench.PipelineOptions).
type registerRequest struct {
	// Synthetic names a built-in ISCAS85-class spec (bench.SpecByName).
	Synthetic string `json:"synthetic,omitempty"`
	// Netlist is the raw .bench netlist text for an upload.
	Netlist string `json:"netlist,omitempty"`
	// Name labels an uploaded netlist (default "upload"); ignored for
	// synthetic circuits, which are named by their spec. The label is not
	// part of the cache key — identical content registered under a
	// different name hits the cache and keeps the first registration's
	// label (the response echoes it).
	Name string `json:"name,omitempty"`
	// Seed is the geometry seed for uploads (wire lengths, channel
	// shuffles); part of the cache key. Ignored for synthetic circuits,
	// whose specs carry their own seed.
	Seed int64 `json:"seed,omitempty"`
	// WireLengthScale multiplies the synthetic routed wire lengths
	// (default 1; 8 models global interconnect). Part of the cache key.
	WireLengthScale float64 `json:"wire_length_scale,omitempty"`
	// Grid registers a synthetic grid mesh instead of a netlist circuit.
	Grid *gridRegister `json:"grid,omitempty"`
}

// registerResponse describes the cached instance a registration resolved
// to. Key is the instance-cache handle every later request uses; Cached
// reports whether the instance already existed (the amortization the
// cache exists for) — on a hit, Circuit is the label the instance was
// first registered under. Bounds are the self-calibrated defaults solves
// fall back to.
type registerResponse struct {
	Key        string       `json:"key"`
	Circuit    string       `json:"circuit"`
	Cached     bool         `json:"cached"`
	Gates      int          `json:"gates"`
	Wires      int          `json:"wires"`
	Components int          `json:"components"`
	Bounds     bench.Bounds `json:"bounds"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decode(w, r, "register", &req) {
		return
	}
	sources := 0
	for _, set := range []bool{req.Synthetic != "", req.Netlist != "", req.Grid != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		writeError(w, http.StatusBadRequest, "register: exactly one of synthetic, netlist, or grid must be set")
		return
	}
	if req.WireLengthScale < 0 {
		writeError(w, http.StatusBadRequest, "register: wire_length_scale must be non-negative, got %g", req.WireLengthScale)
		return
	}
	pipe := bench.PipelineOptions{WireLengthScale: req.WireLengthScale}

	// spec is the circuit's wire form: everything a farm worker needs to
	// materialize a bit-identical replica under the same cache key, and
	// exactly what the durable store persists so a restarted server can
	// rebuild the same replica (api.CircuitSpec.Build is that shared
	// spec→instance mapping).
	spec := api.CircuitSpec{WireLengthScale: req.WireLengthScale}
	switch {
	case req.Synthetic != "":
		bs, ok := bench.SpecByName(req.Synthetic)
		if !ok {
			writeError(w, http.StatusBadRequest, "register: unknown synthetic circuit %q", req.Synthetic)
			return
		}
		spec.Key, spec.Synthetic = bench.SpecKey(bs, pipe), req.Synthetic
	case req.Netlist != "":
		spec.Key = bench.NetlistKey([]byte(req.Netlist), req.Seed, pipe)
		spec.Netlist, spec.Name, spec.Seed = req.Netlist, req.Name, req.Seed
	default:
		g := *req.Grid
		spec = api.CircuitSpec{
			Key:  bench.GridKey(g.Width, g.Layers, g.Coupled),
			Grid: &api.GridSpec{Width: g.Width, Layers: g.Layers, Coupled: g.Coupled},
		}
	}
	e, hit, err := s.cache.getOrBuild(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "register: %v", err)
		return
	}
	if !hit {
		s.storePut(circuitPrefix+spec.Key, spec)
	}
	resp := registerResponse{
		Key:     e.key,
		Circuit: e.name,
		Cached:  hit,
		Bounds:  e.bounds,
	}
	if e.inst.Netlist != nil {
		st := e.inst.Netlist.Stats()
		resp.Gates = st.Gates
		resp.Wires = st.Connections + st.Outputs
		resp.Components = st.Gates + st.Connections + st.Outputs
	} else {
		// Grid meshes have no netlist; report evaluator node count instead.
		resp.Components = e.inst.Eval.Graph().NumNodes()
	}
	writeJSON(w, http.StatusOK, resp)
}

// circuitInfo is one GET /circuits row.
type circuitInfo struct {
	Key          string       `json:"key"`
	Circuit      string       `json:"circuit"`
	Bounds       bench.Bounds `json:"bounds"`
	SavedResults []string     `json:"saved_results,omitempty"`
}

func (s *Server) handleListCircuits(w http.ResponseWriter, r *http.Request) {
	entries, _, _, _ := s.cache.snapshot()
	out := make([]circuitInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, circuitInfo{Key: e.key, Circuit: e.name, Bounds: e.bounds, SavedResults: e.resultNames()})
	}
	writeJSON(w, http.StatusOK, out)
}

// solveRequest runs one OGWS solve against a cached instance (the
// target's bounds, budget and width).
//
// Warm starts: warm_from names a result previously stored with save_as on
// the same instance and seeds both halves of the solve — the sizes
// (rc.SetSizes, an ECO-sized perturbation for the dirty-cone engine) and
// the final Lagrange multipliers (core.DualState, so the ascent starts
// beside the dual optimum). Alternatively seed_sizes/dual supply both
// halves inline (a result exported via GET /results round-trips).
// primal_only drops the dual half; s1 additionally starts the solve at
// the lower bounds instead of the seed (core.Options.WarmStart = false,
// the paper's S1, under which results are seed-independent).
type solveRequest struct {
	target
	// Warm-start controls (see type comment).
	WarmFrom   string          `json:"warm_from,omitempty"`
	SeedSizes  []float64       `json:"seed_sizes,omitempty"`
	Dual       *core.DualState `json:"dual,omitempty"`
	PrimalOnly bool            `json:"primal_only,omitempty"`
	S1         bool            `json:"s1,omitempty"`
	// SaveAs stores this solve's result under the given name for later
	// warm_from reuse and GET /results export.
	SaveAs string `json:"save_as,omitempty"`
	// NoDedup forces the solver to run even when the durable store already
	// holds this exact solve (same circuit content, bounds, knobs, and
	// resolved warm-start state). Dedup is safe by construction — the
	// stored bytes ARE a prior run's bytes and solves are deterministic —
	// so this knob exists for benchmarking, not correctness.
	NoDedup bool `json:"no_dedup,omitempty"`
}

// solveResponse carries the full solver result plus the request echo a
// client needs to chain warm starts.
type solveResponse struct {
	Key      string  `json:"key"`
	Circuit  string  `json:"circuit"`
	WarmFrom string  `json:"warm_from,omitempty"`
	SavedAs  string  `json:"saved_as,omitempty"`
	Workers  int     `json:"workers"`
	SolveSec float64 `json:"solve_sec"`
	// Dedup marks a response answered from the durable store without
	// running the solver; Result is byte-for-byte the original run's.
	Dedup  bool         `json:"dedup,omitempty"`
	Result *core.Result `json:"result"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !decode(w, r, "solve", &req) {
		return
	}
	e, bounds, ok := s.resolve(w, "solve", &req.target)
	if !ok {
		return
	}
	if req.WarmFrom != "" && (req.SeedSizes != nil || req.Dual != nil) {
		writeError(w, http.StatusBadRequest, "solve: warm_from and seed_sizes/dual are mutually exclusive")
		return
	}
	rn, ok := s.begin(w, r, "solve", e)
	if !ok {
		return
	}
	defer rn.end()

	// Resolve the warm-start seed under the instance lock so the chain
	// solve → save_as → warm_from is deterministic per circuit.
	job := api.SolveJob{
		Bounds: bounds, MaxIterations: req.MaxIterations, Epsilon: req.Epsilon,
		Seed: e.inst.Eval.X, Dual: req.Dual,
	}
	switch {
	case req.WarmFrom != "":
		saved := e.getResult(req.WarmFrom)
		if saved == nil {
			writeError(w, http.StatusNotFound, "solve: no saved result %q on circuit %s", req.WarmFrom, e.name)
			return
		}
		job.Seed, job.Dual, job.Warm = saved.Result.X, saved.Dual, true
	case req.SeedSizes != nil:
		job.Seed, job.Warm = req.SeedSizes, true
	}
	if req.PrimalOnly {
		job.Dual = nil
	}
	if req.S1 {
		job.Warm = false // paper-faithful S1: the solve starts at the lower bounds
	}
	resp := solveResponse{Key: e.key, Circuit: e.name, WarmFrom: req.WarmFrom, SavedAs: req.SaveAs}
	done := func(res *core.Result) progressEvent {
		return progressEvent{Kind: "solve_done", Iterations: res.Iterations, Converged: res.Converged, Gap: res.Gap, Area: res.Area}
	}

	// Dedup: everything that determines the result bits is now resolved,
	// so hash it and check the durable store. A hit returns the stored
	// bytes — byte-for-byte a prior run's response — without burning a
	// solve; save_as still takes effect so warm-start chains replayed
	// against a restarted server cost only the lookups.
	sk := solveKey(e.key, bounds, req.MaxIterations, req.Epsilon, job.Warm, job.Seed, job.Dual)
	if !req.NoDedup {
		if hit := lookup[storedSolve](s, solvePrefix+sk); hit != nil && hit.Result != nil {
			resp.Dedup, resp.Result = true, hit.Result
			ev := done(hit.Result)
			ev.Dedup = true
			rn.finish(resp, ev, func() {
				s.saveAs(e, req.SaveAs, hit.Result, hit.Dual)
				s.stats.addDedupHit()
			})
			return
		}
	}
	rn.emit(progressEvent{Kind: "solve_start"})

	// With live workers, the fully resolved job goes to the fleet, whose
	// workers each pick their own width — which is free, because results
	// are bit-identical at every width. Otherwise the same job runs here,
	// streaming each iteration onto the watch log (the hook never changes
	// solved bits, pinned by core's hook test) and stopping at the next
	// iteration boundary once the client is gone.
	var fr *api.SolveResult
	var err error
	if s.farmReady() {
		fr, err = s.opt.Farm.Solve(r.Context(), e.farmSpec, job)
	} else {
		fr, err = job.Run(e.inst, req.width(), func(p core.IterProgress) {
			rn.emit(progressEvent{Kind: "iter", Iter: &p})
		}, rn.cancelled)
	}
	if err != nil {
		rn.fail(err)
		return
	}
	resp.Workers, resp.SolveSec, resp.Result = fr.Workers, fr.SolveSec, fr.Result
	ev := done(fr.Result)
	ev.SolveSec = fr.SolveSec
	rn.finish(resp, ev, func() {
		s.saveAs(e, req.SaveAs, fr.Result, fr.Dual)
		s.storePut(solvePrefix+sk, storedSolve{stamp: thisBuild, CircuitKey: e.key, Circuit: e.name, Result: fr.Result, Dual: fr.Dual})
		s.stats.addSolve(fr.SolveSec, fr.Eval, fr.HysteresisTrips, fr.RevertedSweeps)
	})
}

// resultResponse is the GET /results payload: a saved result with both
// warm-start halves, externalized. Feeding sizes/dual back through a
// solve request's seed_sizes/dual reproduces the server-side warm_from
// path bit for bit.
type resultResponse struct {
	Key     string          `json:"key"`
	Circuit string          `json:"circuit"`
	Name    string          `json:"name"`
	Result  *core.Result    `json:"result"`
	Dual    *core.DualState `json:"dual,omitempty"`
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	key, name := r.URL.Query().Get("key"), r.URL.Query().Get("name")
	if key == "" || name == "" {
		writeError(w, http.StatusBadRequest, "results: key and name query parameters are required")
		return
	}
	e := s.cache.get(key)
	if e == nil {
		writeError(w, http.StatusNotFound, "results: no cached circuit for key %q", key)
		return
	}
	saved := e.getResult(name)
	if saved == nil {
		writeError(w, http.StatusNotFound, "results: no saved result %q on circuit %s", name, e.name)
		return
	}
	writeJSON(w, http.StatusOK, resultResponse{
		Key: e.key, Circuit: e.name, Name: name,
		Result: saved.Result, Dual: saved.Dual,
	})
}

// farmReady reports whether requests should dispatch to the farm: a
// coordinator is attached and at least one worker is live. With no live
// workers the service solves locally, exactly as without a coordinator.
func (s *Server) farmReady() bool {
	return s.opt.Farm != nil && s.opt.Farm.LiveWorkers() > 0
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries, hits, misses, evictions := s.cache.snapshot()
	st := s.stats.snapshot(len(entries), hits, misses, evictions)
	if s.opt.Store != nil {
		st.StoreRecords = s.opt.Store.Len()
		st.StoreMode = s.gate.mode()
		st.StoreDegrades, st.StoreRecoveries, st.StoreWritesSkipped = s.gate.counters()
	}
	if s.opt.Farm != nil {
		fs := s.opt.Farm.StatsSnapshot()
		st.Farm = &fs
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

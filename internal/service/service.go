package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// below.
type Options struct {
	// CacheSize bounds the instance cache (LRU over netlist/spec hashes);
	// default 8 instances.
	CacheSize int
	// MaxConcurrentSolves bounds how many solves/sweeps run at once across
	// all circuits (each additionally bounded to one per circuit by the
	// per-instance lock); default runtime.GOMAXPROCS(0).
	MaxConcurrentSolves int
	// DefaultWorkers is the per-solve parallel width used when a request
	// leaves workers at 0; 0 defaults to 1 (the request level owns the
	// cores, exactly like the sweep engine's default split) and a
	// negative value selects all cores, matching core.Options.Workers.
	// Results are bit-identical at every width.
	DefaultWorkers int
	// DefaultLockstep makes lockstep batching (sweep.Options.Lockstep)
	// the default for every sweep request (ogwsd -lockstep). Scheduling
	// only: grids are bit-identical with it on or off, so flipping the
	// server default never changes any response bytes — only /stats
	// attribution and throughput.
	DefaultLockstep bool
	// MaxSavedResults bounds the named warm-start results kept per cached
	// instance (oldest evicted first); default 32.
	MaxSavedResults int
	// MaxRequestBytes caps request bodies (netlist uploads dominate);
	// default 16 MiB.
	MaxRequestBytes int64
	// MaxQueuedSolves bounds the total solve/sweep requests admitted but
	// not yet finished (running plus queued on circuit locks and the
	// solve semaphore). Beyond it requests are shed immediately with
	// 503 + Retry-After instead of queuing without bound; default
	// 4 × MaxConcurrentSolves.
	MaxQueuedSolves int
	// StoreFailureThreshold is how many consecutive store write failures
	// flip the server to degraded (read-only) store mode; default 3.
	// StoreProbeInterval is how often a degraded server lets one write
	// through to probe for recovery; default 15s. See storeGate.
	StoreFailureThreshold int
	StoreProbeInterval    time.Duration
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
	// WatchBuffer bounds the per-circuit progress log GET /watch reads
	// (events retained for late/slow watchers); default delta.DefaultRetain.
	WatchBuffer int
	// DefaultMCSamples / DefaultMCSeed fill a POST /montecarlo request
	// that leaves samples or seed at 0 (ogwsd -mc-samples / -mc-seed).
	// With no server default a zero-sample request stays an error; seed 0
	// is a valid seed, so the default only rebases the "unspecified" case.
	DefaultMCSamples int
	DefaultMCSeed    uint64
}

func (o *Options) fill() {
	if o.CacheSize <= 0 {
		o.CacheSize = 8
	}
	if o.MaxConcurrentSolves <= 0 {
		o.MaxConcurrentSolves = runtime.GOMAXPROCS(0)
	}
	if o.DefaultWorkers == 0 {
		o.DefaultWorkers = 1
	}
	if o.MaxSavedResults <= 0 {
		o.MaxSavedResults = 32
	}
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = 16 << 20
	}
	if o.MaxQueuedSolves <= 0 {
		o.MaxQueuedSolves = 4 * o.MaxConcurrentSolves
	}
	if o.StoreFailureThreshold <= 0 {
		o.StoreFailureThreshold = 3
	}
	if o.StoreProbeInterval <= 0 {
		o.StoreProbeInterval = 15 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.WatchBuffer <= 0 {
		o.WatchBuffer = delta.DefaultRetain
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
	solveSeq int64 // atomic; numbers solves for the watch stream

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
	s := &Server{
		opt:   opt,
		cache: newInstanceCache(opt.CacheSize),
		sem:   make(chan struct{}, opt.MaxConcurrentSolves),
		mux:   http.NewServeMux(),
		hub:   delta.NewHub(opt.WatchBuffer),
	}
	s.gate.threshold = opt.StoreFailureThreshold
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
		r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxRequestBytes)
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

// encodeOr422 encodes a finished run's response before the handler commits
// the run: saves it, persists it, counts it, or reports it done on the
// watch log. A result JSON cannot represent (the +Inf coupling term of
// wires a far too tight delay bound pushed into contact) instead answers
// 422, logs an error event, and reports false, so a result its client
// never received leaves no trace.
func (s *Server) encodeOr422(w http.ResponseWriter, wlog *delta.Log, solveID int64, v any) ([]byte, bool) {
	body, err := marshalBody(v)
	if err != nil {
		s.emit(wlog, progressEvent{Kind: "error", Solve: solveID, Error: err.Error()})
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return nil, false
	}
	return body, true
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// acquireSolveSlot takes a slot on the global solve semaphore, giving up
// if the client disconnects first — an abandoned request must not go on
// to burn a slot solving for a dead connection. Returns false (response
// written, best-effort) when the request was shed. A solve that already
// started is never cancelled mid-flight: the solver has no preemption
// points, and its result may still be saved for warm-start reuse.
func (s *Server) acquireSolveSlot(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "request cancelled while waiting for a solve slot")
		return false
	}
	if r.Context().Err() != nil {
		<-s.sem
		writeError(w, http.StatusServiceUnavailable, "request cancelled before solving")
		return false
	}
	return true
}

// decode parses a JSON request body strictly: unknown fields are rejected
// so a typoed knob fails loudly instead of silently solving with defaults.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// decodeStatus maps a decode error to its HTTP status: an oversized body
// (http.MaxBytesReader tripping Options.MaxRequestBytes) is 413 so the
// client learns the size limit rather than hunting for a JSON mistake;
// everything else is a plain 400.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
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
	if err := decode(r, &req); err != nil {
		writeError(w, decodeStatus(err), "bad register request: %v", err)
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

	// farmSpec is the circuit's wire form: everything a farm worker needs
	// to materialize a bit-identical replica under the same cache key, and
	// exactly what the durable store persists so a restarted server can
	// rebuild the same replica (buildForSpec is that shared spec→instance
	// mapping).
	var (
		key      string
		farmSpec api.CircuitSpec
	)
	switch {
	case req.Synthetic != "":
		spec, ok := bench.SpecByName(req.Synthetic)
		if !ok {
			writeError(w, http.StatusBadRequest, "register: unknown synthetic circuit %q", req.Synthetic)
			return
		}
		key = bench.SpecKey(spec, pipe)
		farmSpec = api.CircuitSpec{Key: key, Synthetic: req.Synthetic, WireLengthScale: req.WireLengthScale}
	case req.Netlist != "":
		name := req.Name
		if name == "" {
			name = "upload"
		}
		key = bench.NetlistKey([]byte(req.Netlist), req.Seed, pipe)
		farmSpec = api.CircuitSpec{Key: key, Netlist: req.Netlist, Name: name, Seed: req.Seed, WireLengthScale: req.WireLengthScale}
	default:
		g := *req.Grid
		key = bench.GridKey(g.Width, g.Layers, g.Coupled)
		farmSpec = api.CircuitSpec{Key: key, Grid: &api.GridSpec{Width: g.Width, Layers: g.Layers, Coupled: g.Coupled}}
	}
	name, build, err := buildForSpec(farmSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "register: %v", err)
		return
	}
	e, hit, err := s.cache.getOrBuild(key, name, farmSpec, build)
	if err != nil {
		writeError(w, http.StatusBadRequest, "register %s: %v", name, err)
		return
	}
	if !hit {
		s.persistCircuit(farmSpec)
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

// solveRequest runs one OGWS solve against a cached instance.
//
// Bound semantics (a0 in ps, noise X_B and power P′ in fF): 0 selects the
// instance's self-calibrated derived bound, a positive value overrides it,
// and a negative noise/power disables that constraint entirely.
//
// Warm starts: warm_from names a result previously stored with save_as on
// the same instance and seeds both halves of the solve — the sizes
// (rc.SetSizes, an ECO-sized perturbation for the dirty-cone engine) and
// the final Lagrange multipliers (core.DualState, so the ascent starts
// beside the dual optimum). Alternatively seed_sizes/dual supply both
// halves inline (a result exported via GET /results round-trips).
// primal_only drops the dual half; s1 additionally makes the LRS sweeps
// reset to the lower bounds (core.Options.WarmStart = false, the
// paper-faithful schedule under which results are seed-independent).
type solveRequest struct {
	Key string `json:"key"`
	// Bounds: 0 = derived, >0 = override, <0 = disable (noise/power only).
	A0    float64 `json:"a0,omitempty"`
	Noise float64 `json:"noise,omitempty"`
	Power float64 `json:"power,omitempty"`
	// Solver knobs; 0 keeps the core.DefaultOptions value. Workers: 0 =
	// the server's default width, negative = all cores, otherwise the
	// exact goroutine count — results bit-identical at every width.
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	// Full throws the incremental escape hatch (full passes every sweep);
	// results are bit-identical either way.
	Full bool `json:"full,omitempty"`
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

// resolveBounds applies the request's bound overrides to the instance's
// derived bounds: 0 keeps the derived value, negative disables.
func resolveBounds(base bench.Bounds, a0, noise, power float64) (bench.Bounds, error) {
	b := base
	if math.IsNaN(a0) || math.IsNaN(noise) || math.IsNaN(power) {
		return b, errors.New("bounds must not be NaN")
	}
	if a0 != 0 {
		b.A0 = a0 // negative/invalid values are rejected by core.Options.validate
	}
	if noise < 0 {
		b.NoiseBound = 0
	} else if noise > 0 {
		b.NoiseBound = noise
	}
	if power < 0 {
		b.PowerBound = 0
	} else if power > 0 {
		b.PowerBound = power
	}
	return b, nil
}

func (s *Server) solverOptions(b bench.Bounds, maxIter int, epsilon float64, workers int, full, warm bool) core.Options {
	opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	if maxIter > 0 {
		opt.MaxIterations = maxIter
	}
	if epsilon > 0 {
		opt.Epsilon = epsilon
	}
	if workers == 0 {
		// 0 = server default; negative passes through to core's all-cores
		// normalization, same as every other layer's workers knob.
		workers = s.opt.DefaultWorkers
	}
	opt.Workers = workers
	opt.Incremental = !full
	opt.WarmStart = warm
	return opt
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if err := decode(r, &req); err != nil {
		writeError(w, decodeStatus(err), "bad solve request: %v", err)
		return
	}
	e := s.cache.get(req.Key)
	if e == nil {
		writeError(w, http.StatusNotFound, "solve: no cached circuit for key %q (register it first; it may have been evicted)", req.Key)
		return
	}
	if req.WarmFrom != "" && (req.SeedSizes != nil || req.Dual != nil) {
		writeError(w, http.StatusBadRequest, "solve: warm_from and seed_sizes/dual are mutually exclusive")
		return
	}
	bounds, err := resolveBounds(e.bounds, req.A0, req.Noise, req.Power)
	if err != nil {
		writeError(w, http.StatusBadRequest, "solve: %v", err)
		return
	}

	// Overload gate before any lock: a request past its bound must be
	// shed while shedding is still cheap, not after it has parked on the
	// circuit mutex (see admitSolve).
	if !s.admitSolve(w, r, "solve") {
		return
	}
	defer s.releaseSolve()

	// Per-circuit lock first, global solve slot second: a request queued
	// behind another solve of the same circuit must not pin a semaphore
	// slot while it waits, or a burst on one circuit would starve every
	// other circuit. The order is the same everywhere (mu → sem) and a
	// slot holder never waits on another entry's mu, so there is no cycle.
	e.mu.Lock()
	defer e.mu.Unlock()
	if !s.acquireSolveSlot(w, r) {
		return
	}
	defer func() { <-s.sem }()

	// Resolve the warm-start seed under the instance lock so the chain
	// solve → save_as → warm_from is deterministic per circuit.
	seed := e.inst.Eval.X
	dual := req.Dual
	warm := false
	switch {
	case req.WarmFrom != "":
		saved := e.getResult(req.WarmFrom)
		if saved == nil {
			writeError(w, http.StatusNotFound, "solve: no saved result %q on circuit %s", req.WarmFrom, e.name)
			return
		}
		seed, dual, warm = saved.Result.X, saved.Dual, true
	case req.SeedSizes != nil:
		seed, warm = req.SeedSizes, true
	}
	if req.PrimalOnly {
		dual = nil
	}
	if req.S1 {
		warm = false // paper-faithful S1 reset: sizes reset to the lower bounds
	}

	wlog := s.watchLog(e.key)
	solveID := s.nextSolveID()

	// Dedup: everything that determines the result bits is now resolved,
	// so hash it and check the durable store. A hit returns the stored
	// bytes — byte-for-byte a prior run's response — without burning a
	// solve; save_as still takes effect so warm-start chains replayed
	// against a restarted server cost only the lookups.
	sk := solveKey(e.key, bounds, req.MaxIterations, req.Epsilon, req.Full, warm, seed, dual)
	if !req.NoDedup {
		if hit := s.lookupSolve(sk); hit != nil && hit.Result != nil {
			if req.SaveAs != "" {
				saved := &savedResult{Result: hit.Result, Dual: hit.Dual}
				e.saveResult(req.SaveAs, saved, s.opt.MaxSavedResults)
				s.persistResult(e.key, req.SaveAs, saved)
			}
			s.stats.addDedupHit()
			s.emit(wlog, progressEvent{
				Kind: "solve_done", Solve: solveID, Dedup: true,
				Iterations: hit.Result.Iterations, Converged: hit.Result.Converged,
				Gap: hit.Result.Gap, Area: hit.Result.Area,
			})
			writeJSON(w, http.StatusOK, solveResponse{
				Key:      e.key,
				Circuit:  e.name,
				WarmFrom: req.WarmFrom,
				SavedAs:  req.SaveAs,
				Dedup:    true,
				Result:   hit.Result,
			})
			return
		}
	}
	s.emit(wlog, progressEvent{Kind: "solve_start", Solve: solveID})

	// Farm dispatch: with live workers, ship the fully resolved solve (the
	// exact bounds, seed, dual, and knobs the local path below would use)
	// to the fleet. The request's workers knob is advisory there — each
	// worker picks its own width — which is free, because results are
	// bit-identical at every width. Falls through to the local path when
	// no workers are live.
	if s.farmReady() {
		fr, err := s.opt.Farm.Solve(r.Context(), e.farmSpec, api.SolveJob{
			Bounds:        bounds,
			MaxIterations: req.MaxIterations,
			Epsilon:       req.Epsilon,
			Full:          req.Full,
			Warm:          warm,
			Seed:          seed,
			Dual:          dual,
		})
		if err != nil {
			s.emit(wlog, progressEvent{Kind: "error", Solve: solveID, Error: err.Error()})
			if r.Context().Err() != nil {
				// The client disconnecting cancelled the farm run (Solve
				// awaits on the request context) — account it and answer
				// the dead connection best-effort.
				s.stats.addSolveCancelled()
				writeError(w, http.StatusServiceUnavailable, "solve: cancelled: client disconnected")
				return
			}
			writeError(w, http.StatusUnprocessableEntity, "solve: %v", err)
			return
		}
		body, ok := s.encodeOr422(w, wlog, solveID, solveResponse{
			Key:      e.key,
			Circuit:  e.name,
			WarmFrom: req.WarmFrom,
			SavedAs:  req.SaveAs,
			Workers:  fr.Workers,
			SolveSec: fr.SolveSec,
			Result:   fr.Result,
		})
		if !ok {
			return
		}
		if req.SaveAs != "" {
			saved := &savedResult{Result: fr.Result, Dual: fr.Dual}
			e.saveResult(req.SaveAs, saved, s.opt.MaxSavedResults)
			s.persistResult(e.key, req.SaveAs, saved)
		}
		s.persistSolve(sk, storedSolve{CircuitKey: e.key, Circuit: e.name, Result: fr.Result, Dual: fr.Dual})
		s.emit(wlog, progressEvent{
			Kind: "solve_done", Solve: solveID,
			Iterations: fr.Result.Iterations, Converged: fr.Result.Converged,
			Gap: fr.Result.Gap, Area: fr.Result.Area, SolveSec: fr.SolveSec,
		})
		s.stats.addSolve(fr.SolveSec, fr.Eval, fr.HysteresisTrips, fr.RevertedSweeps)
		writeBody(w, http.StatusOK, body)
		return
	}

	opt := s.solverOptions(bounds, req.MaxIterations, req.Epsilon, req.Workers, req.Full, warm)
	// Stream each iteration onto the watch log. The hook runs on the
	// solving goroutine between the dual update and the convergence check
	// and never changes solved bits (pinned by core's hook test).
	s.solveProgressOptions(&opt, wlog, solveID)
	// Propagate the request deadline into the solver: once the client is
	// gone the solve stops at its next iteration boundary instead of
	// burning the slot to completion for a dead connection. A hook that
	// never fires leaves the bits untouched (core's cancel test).
	opt.Cancel = func() bool { return r.Context().Err() != nil }
	replica, err := e.inst.Replica()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "solve: %v", err)
		return
	}
	sol, err := core.NewSolver(replica, opt)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "solve: %v", err)
		return
	}
	defer sol.Close()
	start := time.Now()
	res, err := sol.RunFromDual(seed, dual)
	if err != nil {
		s.emit(wlog, progressEvent{Kind: "error", Solve: solveID, Error: err.Error()})
		if errors.Is(err, core.ErrCancelled) {
			s.stats.addSolveCancelled()
			writeError(w, http.StatusServiceUnavailable, "solve: cancelled: client disconnected")
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "solve: %v", err)
		return
	}
	sec := time.Since(start).Seconds()
	body, ok := s.encodeOr422(w, wlog, solveID, solveResponse{
		Key:      e.key,
		Circuit:  e.name,
		WarmFrom: req.WarmFrom,
		SavedAs:  req.SaveAs,
		Workers:  sol.Workers(),
		SolveSec: sec,
		Result:   res,
	})
	if !ok {
		return
	}
	finalDual := sol.DualState()
	if req.SaveAs != "" {
		saved := &savedResult{Result: res, Dual: finalDual}
		e.saveResult(req.SaveAs, saved, s.opt.MaxSavedResults)
		s.persistResult(e.key, req.SaveAs, saved)
	}
	s.persistSolve(sk, storedSolve{CircuitKey: e.key, Circuit: e.name, Result: res, Dual: finalDual})
	s.emit(wlog, progressEvent{
		Kind: "solve_done", Solve: solveID,
		Iterations: res.Iterations, Converged: res.Converged,
		Gap: res.Gap, Area: res.Area, SolveSec: sec,
	})
	s.stats.addSolve(sec, replica.Stats(), sol.HysteresisTrips(), sol.RevertedSweeps())
	writeBody(w, http.StatusOK, body)
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

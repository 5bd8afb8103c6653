package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"runtime"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/sweep"
)

// The run lifecycle. Every request that solves — POST /solve, POST /sweep
// (grid or corners) and POST /montecarlo — is the OGWS solve run once or
// many times, and takes one path through the service: resolve its target,
// begin (admission, circuit lock, solve slot), answer a stored repeat
// from the store (lookup), otherwise log a *_start event and run, then
// either fail or finish, and end.

// target is what every run request names: a cached circuit, its bound
// overrides and the solver budget. The run requests embed it, so its
// fields sit at the top level of their JSON bodies.
//
// Bound semantics (a0 in ps, noise X_B and power P′ in fF): 0 selects the
// instance's self-calibrated derived bound, a positive value overrides it,
// and a negative noise/power disables that constraint entirely.
type target struct {
	Key   string  `json:"key"`
	A0    float64 `json:"a0,omitempty"`
	Noise float64 `json:"noise,omitempty"`
	Power float64 `json:"power,omitempty"`
	// Solver knobs; 0 keeps the core.DefaultOptions value. Workers is each
	// solve's goroutine width: 0 = 1 (the request level owns the cores,
	// like the sweep engine's default split); negative = all cores for a
	// solve or a sweep cell, and 1 for a Monte-Carlo sample or a corner,
	// whose solves fan out over the cores themselves (see
	// variation.MCOptions.Workers); a width above runtime.GOMAXPROCS(0) is
	// clamped to it. Results are bit-identical at every width.
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Workers       int     `json:"workers,omitempty"`
}

// width is the target's per-solve goroutine width: an unset workers is
// 1, and no request starts more pool goroutines than there are cores.
func (t *target) width() int {
	if t.Workers == 0 {
		return 1
	}
	return min(t.Workers, runtime.GOMAXPROCS(0))
}

// overSolveCap reports whether a request asking for n solves (Monte-Carlo
// samples or grid cells) exceeds maxRunSolves, answering 422 naming the
// cap when it does. Handlers check it before admission, so an oversized
// request allocates nothing.
func overSolveCap(w http.ResponseWriter, what string, n int) bool {
	if n <= maxRunSolves {
		return false
	}
	writeError(w, http.StatusUnprocessableEntity, "%s: %d solves requested, over the cap of %d per request", what, n, maxRunSolves)
	return true
}

// resolve finds the target's cached circuit and applies the bound
// overrides to the circuit's derived bounds. It reports false, with the
// response written, when either fails.
func (s *Server) resolve(w http.ResponseWriter, what string, t *target) (*entry, bench.Bounds, bool) {
	e := s.cache.get(t.Key)
	if e == nil {
		writeError(w, http.StatusNotFound, "%s: no cached circuit for key %q (register it first; it may have been evicted)", what, t.Key)
		return nil, bench.Bounds{}, false
	}
	b := e.bounds
	if math.IsNaN(t.A0) || math.IsNaN(t.Noise) || math.IsNaN(t.Power) {
		writeError(w, http.StatusBadRequest, "%s: bounds must not be NaN", what)
		return nil, bench.Bounds{}, false
	}
	if t.A0 != 0 {
		b.A0 = t.A0 // negative/invalid values are rejected by core.Options.validate
	}
	if t.Noise < 0 {
		b.NoiseBound = 0
	} else if t.Noise > 0 {
		b.NoiseBound = t.Noise
	}
	if t.Power < 0 {
		b.PowerBound = 0
	} else if t.Power > 0 {
		b.PowerBound = t.Power
	}
	return e, b, true
}

// run is one admitted request's hold on its circuit, from begin to end:
// the watch log its progress goes to, its solve number there, and the
// NDJSON stream its lines go out on once the request streams.
type run struct {
	s    *Server
	e    *entry
	w    http.ResponseWriter
	r    *http.Request
	what string // the endpoint's name in error messages
	log  *delta.Log
	id   int64
	nw   *ndjsonWriter
}

// begin admits a run on circuit e and takes, in the one order every run
// takes them, what it holds until end:
//
//   - the overload gate (admitSolve), before any lock, so a request past
//     its bound is shed while shedding is still cheap;
//   - the circuit lock, which serializes the runs of one circuit, so the
//     warm-start chain solve → save_as → warm_from is deterministic;
//   - a global solve slot, last: a request queued behind another run of
//     the same circuit must not pin a slot while it waits, or a burst on
//     one circuit would starve every other circuit. A slot holder never
//     waits on another entry's lock, so there is no cycle.
//
// A client that disconnects before it gets a slot is answered 503 and
// not run. begin reports false, with the response written, when the
// request was shed; otherwise the caller owes rn.end().
func (s *Server) begin(w http.ResponseWriter, r *http.Request, what string, e *entry) (*run, bool) {
	if !s.admitSolve(w, what) {
		return nil, false
	}
	e.mu.Lock()
	select {
	case s.sem <- struct{}{}:
		if r.Context().Err() == nil {
			return &run{s: s, e: e, w: w, r: r, what: what, log: s.hub.Log(e.key), id: s.solveSeq.Add(1)}, true
		}
		<-s.sem
		writeError(w, http.StatusServiceUnavailable, "request cancelled before solving")
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "request cancelled while waiting for a solve slot")
	}
	e.mu.Unlock()
	s.inflight.Add(-1)
	return nil, false
}

// end releases what begin took, in reverse order.
func (rn *run) end() {
	<-rn.s.sem
	rn.e.mu.Unlock()
	rn.s.inflight.Add(-1)
}

// cancelled is the run's cancel hook: true once its client is gone, so
// the solvers stop at their next iteration boundary instead of burning
// the slot for a dead connection.
func (rn *run) cancelled() bool { return rn.r.Context().Err() != nil }

// stream makes the run's response NDJSON: lines go out as the run
// produces them, and once the first one has, the 200 header is committed.
func (rn *run) stream() { rn.nw = &ndjsonWriter{w: rn.w} }

// emit appends one progress event, numbered as this run, to the
// circuit's watch log.
func (rn *run) emit(ev progressEvent) {
	ev.Solve = rn.id
	if _, err := rn.log.AppendJSON(ev); err != nil {
		// progressEvent always marshals; keep the accounting honest anyway.
		rn.s.stats.addStoreError()
	}
}

// fail answers a run that returned err, after logging it on the watch
// log: a run its client's disconnect cancelled is counted and answered
// 503, any other error 422, and once a streamed response has begun the
// error can only go in-band, as a final {"error": ...} line.
func (rn *run) fail(err error) {
	rn.emit(progressEvent{Kind: "error", Error: err.Error()})
	cancelled := errors.Is(err, core.ErrCancelled) || errors.Is(err, sweep.ErrCancelled) || rn.cancelled()
	if cancelled {
		rn.s.stats.addSolveCancelled()
	}
	switch {
	case rn.nw != nil && rn.nw.started():
		rn.nw.writeLine(errorResponse{Error: err.Error()})
	case cancelled:
		writeError(rn.w, http.StatusServiceUnavailable, "%s: cancelled: client disconnected", rn.what)
	default:
		writeError(rn.w, http.StatusUnprocessableEntity, "%s: %v", rn.what, err)
	}
}

// finish answers a run whose outcome is v: the response body, or a
// streamed run's final summary line. It encodes v before it commits the
// run, so a v JSON cannot represent (the +Inf coupling term of wires a
// far too tight delay bound pushed into contact) goes to fail instead and
// a result its client never received leaves no trace. Otherwise commit
// saves, persists and counts the run, the done event ev goes on the watch
// log, and v goes out.
func (rn *run) finish(v any, ev progressEvent, commit func()) {
	var body []byte
	var err error
	if rn.nw != nil {
		body, err = json.Marshal(v)
	} else {
		body, err = marshalBody(v)
	}
	if err != nil {
		rn.fail(err)
		return
	}
	commit()
	rn.emit(ev)
	if rn.nw != nil {
		rn.nw.writeData(body)
		return
	}
	writeBody(rn.w, http.StatusOK, body)
}

// lookup returns the record the store holds under key, or nil when the
// server has no store, the key is absent, the read failed (counted as a
// store error), or the record was written under other numerics: the one
// read path of dedup. The key hashes the numerics, so no current key
// reaches a foreign record; the stamp check keeps that from resting on
// the hash alone.
func lookup[T interface{ foreign() bool }](s *Server, key string) *T {
	if s.opt.Store == nil {
		return nil
	}
	v := new(T)
	ok, err := s.opt.Store.Get(key, v)
	if err != nil {
		s.stats.addStoreError()
	}
	if err != nil || !ok || (*v).foreign() {
		return nil
	}
	return v
}

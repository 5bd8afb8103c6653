package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/sweep"
)

// sweepRequest runs a bounds-grid sweep (internal/sweep) against a cached
// instance. Axis factors are unitless multipliers: delay_scale scales the
// derived A0 (ps) per row, noise_scale scales the variable part of the
// derived X_B (fF) per column; an empty axis defaults to {1}. The a0/
// noise/power overrides replace the derived base bounds first (same
// semantics as a solve request). With stream set, the response is NDJSON:
// one sweep.Cell object per line as each cell's solve completes (warm
// sweeps interleave rows but stream each row in column order; cold sweeps
// stream cells in completion order), then a final summary line with the
// Pareto frontier — results are bit-identical to the buffered form, so
// clients needing row-major order can place cells by their row/col
// fields.
type sweepRequest struct {
	Key        string    `json:"key"`
	DelayScale []float64 `json:"delay_scale,omitempty"`
	NoiseScale []float64 `json:"noise_scale,omitempty"`
	// Base-bounds overrides: 0 = derived, >0 = override, <0 = disable.
	A0    float64 `json:"a0,omitempty"`
	Noise float64 `json:"noise,omitempty"`
	Power float64 `json:"power,omitempty"`
	// Solver knobs per cell; 0 keeps the defaults.
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	// Workers is the per-cell solver width (0 = server default, negative
	// = all cores); sweep_workers bounds concurrently solving rows
	// (0 = all cores). Results bit-identical at every width.
	Workers      int  `json:"workers,omitempty"`
	SweepWorkers int  `json:"sweep_workers,omitempty"`
	Cold         bool `json:"cold,omitempty"`
	PrimalOnly   bool `json:"primal_only,omitempty"`
	S1           bool `json:"s1,omitempty"`
	Stream       bool `json:"stream,omitempty"`
	// Corners replaces the bounds grid with the standard five-corner
	// process enumeration (tt/ff/ss/fs/sf), each corner warm-started from
	// the nominal solve; delay_scale / noise_scale are ignored. See
	// handleCorners.
	Corners bool `json:"corners,omitempty"`
}

// gridLRSSweeps totals the inner LRS sweeps a solved grid executed — the
// sweep work measure GET /stats reports.
func gridLRSSweeps(res *sweep.Result) int {
	total := 0
	for i := range res.Cells {
		if r := res.Cells[i].Result; r != nil {
			total += r.LRSSweepsTotal
		}
	}
	return total
}

// sweepResponse is the buffered (non-streaming) sweep payload.
type sweepResponse struct {
	Key      string        `json:"key"`
	Circuit  string        `json:"circuit"`
	SolveSec float64       `json:"solve_sec"`
	Result   *sweep.Result `json:"result"`
}

// sweepSummary is the final NDJSON line of a streamed sweep.
type sweepSummary struct {
	Done     bool    `json:"done"`
	Key      string  `json:"key"`
	Circuit  string  `json:"circuit"`
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	Frontier []int   `json:"frontier"`
	SolveSec float64 `json:"solve_sec"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decode(r, &req); err != nil {
		writeError(w, decodeStatus(err), "bad sweep request: %v", err)
		return
	}
	e := s.cache.get(req.Key)
	if e == nil {
		writeError(w, http.StatusNotFound, "sweep: no cached circuit for key %q (register it first; it may have been evicted)", req.Key)
		return
	}
	if req.Corners {
		s.handleCorners(w, r, &req, e)
		return
	}
	bounds, err := resolveBounds(e.bounds, req.A0, req.Noise, req.Power)
	if err != nil {
		writeError(w, http.StatusBadRequest, "sweep: %v", err)
		return
	}
	workers := req.Workers
	if workers == 0 {
		// Same convention as /solve: 0 = server default, negative = all
		// cores (core's normalization).
		workers = s.opt.DefaultWorkers
	}
	opt := sweep.Options{
		DelayScale:    req.DelayScale,
		NoiseScale:    req.NoiseScale,
		Bounds:        &bounds,
		MaxIterations: req.MaxIterations,
		Epsilon:       req.Epsilon,
		Workers:       workers,
		SweepWorkers:  req.SweepWorkers,
		Cold:          req.Cold,
		PrimalOnly:    req.PrimalOnly,
		ColdLRS:       req.S1,
		// Shed abandoned grids: unlike a solve (whose result may be saved
		// for warm starts), a sweep's output goes nowhere once the client
		// is gone, so stop scheduling cells when the request dies.
		Cancel: func() bool { return r.Context().Err() != nil },
	}

	// Overload gate before any lock, then the same lock order as
	// handleSolve: per-circuit mutex before the global solve slot, so
	// queued requests on one circuit never starve others.
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

	// Live-convergence stream: every cell completion (and, on local runs,
	// every solver iteration) lands on the circuit's watch log. Installed
	// before the NDJSON OnCell below so the wrapper composes over it.
	wlog := s.watchLog(e.key)
	solveID := s.nextSolveID()

	// runGrid solves the grid either on the farm (live workers: the
	// coordinator leases the wavefront out and reassembles the identical
	// row-major grid) or locally — the distributed determinism contract is
	// exactly that this choice is invisible in the bytes.
	runGrid := func() (*sweep.Result, error) {
		if s.farmReady() {
			return s.opt.Farm.Sweep(r.Context(), e.farmSpec, e.inst, opt)
		}
		return sweep.Run(e.inst, opt)
	}

	if !req.Stream {
		s.sweepProgressOptions(&opt, wlog, solveID)
		s.emit(wlog, progressEvent{Kind: "sweep_start", Solve: solveID})
		start := time.Now()
		res, err := runGrid()
		if err != nil {
			s.emit(wlog, progressEvent{Kind: "error", Solve: solveID, Error: err.Error()})
			if errors.Is(err, sweep.ErrCancelled) || r.Context().Err() != nil {
				s.stats.addSolveCancelled()
				writeError(w, http.StatusServiceUnavailable, "sweep: cancelled: client disconnected")
				return
			}
			writeError(w, http.StatusUnprocessableEntity, "sweep: %v", err)
			return
		}
		sec := time.Since(start).Seconds()
		body, ok := s.encodeOr422(w, wlog, solveID, sweepResponse{Key: e.key, Circuit: e.name, SolveSec: sec, Result: res})
		if !ok {
			return
		}
		s.emit(wlog, progressEvent{Kind: "sweep_done", Solve: solveID, Iterations: len(res.Cells), SolveSec: sec})
		s.stats.addSweep(sec, len(res.Cells), gridLRSSweeps(res))
		writeBody(w, http.StatusOK, body)
		return
	}

	// Streaming: once the first cell goes out the 200 header is committed,
	// so a mid-stream error can only be reported in-band as a final
	// {"error": ...} line; an error before any cell (bad bounds, a failed
	// first solve) still gets a real 422 like the buffered path.
	nw := &ndjsonWriter{w: w}
	opt.OnCell = func(c *sweep.Cell) { nw.writeLine(c) }
	// The watch wrapper composes over the NDJSON OnCell just installed:
	// each cell goes out on the response stream AND the watch log.
	s.sweepProgressOptions(&opt, wlog, solveID)
	s.emit(wlog, progressEvent{Kind: "sweep_start", Solve: solveID})
	start := time.Now()
	res, err := runGrid()
	if err != nil {
		s.emit(wlog, progressEvent{Kind: "error", Solve: solveID, Error: err.Error()})
		if errors.Is(err, sweep.ErrCancelled) || r.Context().Err() != nil {
			s.stats.addSolveCancelled()
		}
		if !nw.started() {
			writeError(w, http.StatusUnprocessableEntity, "sweep: %v", err)
		} else {
			nw.writeLine(errorResponse{Error: err.Error()})
		}
		return
	}
	sec := time.Since(start).Seconds()
	s.emit(wlog, progressEvent{Kind: "sweep_done", Solve: solveID, Iterations: len(res.Cells), SolveSec: sec})
	s.stats.addSweep(sec, len(res.Cells), gridLRSSweeps(res))
	nw.writeLine(sweepSummary{
		Done: true, Key: e.key, Circuit: e.name,
		Rows: res.Rows, Cols: res.Cols, Frontier: res.Frontier, SolveSec: sec,
	})
}

// ndjsonWriter serializes concurrent NDJSON lines onto one streaming
// response: the sweep and watch streams' shared write path. The
// Content-Type header is committed lazily with the first line.
type ndjsonWriter struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	wrote bool
}

// writeLine emits v as one NDJSON line. A payload that fails to marshal
// (a non-finite float, say) must not silently vanish from the stream —
// the buffered path would have surfaced the failure as an error response,
// so the stream carries it in-band as an {"error": ...} line instead; the
// line count stays complete either way.
func (nw *ndjsonWriter) writeLine(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("stream: line failed to marshal: %v", err)})
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.wrote {
		nw.wrote = true
		nw.w.Header().Set("Content-Type", "application/x-ndjson")
	}
	nw.w.Write(append(data, '\n')) //nolint:errcheck // client gone: keep solving, drop output
	if f, ok := nw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// started reports whether any line has been written (the 200 header is
// then committed and errors can only go in-band).
func (nw *ndjsonWriter) started() bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.wrote
}

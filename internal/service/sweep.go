package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/sweep"
)

// sweepRequest runs a bounds-grid sweep (internal/sweep) against a cached
// instance. Axis factors are unitless multipliers: delay_scale scales the
// derived A0 (ps) per row, noise_scale scales the variable part of the
// derived X_B (fF) per column; an empty axis defaults to {1}. The target's
// a0/noise/power overrides replace the derived base bounds first (same
// semantics as a solve request), and its workers is the per-cell solver
// width. With stream set, the response is NDJSON: one sweep.Cell object
// per line as each cell's solve completes (warm sweeps interleave rows but
// stream each row in column order; cold sweeps stream cells in completion
// order), then a final summary line with the Pareto frontier — results
// are bit-identical to the buffered form, so clients needing row-major
// order can place cells by their row/col fields.
type sweepRequest struct {
	target
	DelayScale []float64 `json:"delay_scale,omitempty"`
	NoiseScale []float64 `json:"noise_scale,omitempty"`
	// SweepWorkers bounds concurrently solving rows (0 = all cores, and
	// more than runtime.GOMAXPROCS(0) is clamped to it). Results are
	// bit-identical at every width.
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
	if !decode(w, r, "sweep", &req) {
		return
	}
	e, bounds, ok := s.resolve(w, "sweep", &req.target)
	if !ok {
		return
	}
	if req.Corners {
		s.handleCorners(w, r, &req, e, bounds)
		return
	}
	if overSolveCap(w, "sweep", max(len(req.DelayScale), 1)*max(len(req.NoiseScale), 1)) {
		return
	}
	rn, ok := s.begin(w, r, "sweep", e)
	if !ok {
		return
	}
	defer rn.end()

	opt := sweep.Options{
		DelayScale:    req.DelayScale,
		NoiseScale:    req.NoiseScale,
		Bounds:        &bounds,
		MaxIterations: req.MaxIterations,
		Epsilon:       req.Epsilon,
		Workers:       req.width(),
		SweepWorkers:  min(req.SweepWorkers, runtime.GOMAXPROCS(0)),
		Cold:          req.Cold,
		PrimalOnly:    req.PrimalOnly,
		ColdLRS:       req.S1,
		// Shed abandoned grids: a sweep's output goes nowhere once the
		// client is gone, so stop scheduling cells when the request dies.
		Cancel: rn.cancelled,
	}
	if req.Stream {
		// Once the first cell goes out the 200 header is committed, so a
		// later error can only go in-band; an error before any cell still
		// gets a real status like the buffered form.
		rn.stream()
		opt.OnCell = func(c *sweep.Cell) { rn.nw.writeLine(c) }
	}
	// Every cell completion (and, on local runs, every solver iteration)
	// lands on the circuit's watch log too.
	rn.watchSweep(&opt)
	rn.emit(progressEvent{Kind: "sweep_start"})
	start := time.Now()
	// The farm (live workers: the coordinator leases the wavefront out
	// and reassembles the identical row-major grid) or the local engine
	// solves the grid — the distributed determinism contract is exactly
	// that this choice is invisible in the bytes.
	var res *sweep.Result
	var err error
	if s.farmReady() {
		res, err = s.opt.Farm.Sweep(r.Context(), e.farmSpec, e.inst, opt)
	} else {
		res, err = sweep.Run(e.inst, opt)
	}
	if err != nil {
		rn.fail(err)
		return
	}
	sec := time.Since(start).Seconds()
	var out any = sweepResponse{Key: e.key, Circuit: e.name, SolveSec: sec, Result: res}
	if req.Stream {
		out = sweepSummary{
			Done: true, Key: e.key, Circuit: e.name,
			Rows: res.Rows, Cols: res.Cols, Frontier: res.Frontier, SolveSec: sec,
		}
	}
	rn.finish(out, progressEvent{Kind: "sweep_done", Iterations: len(res.Cells), SolveSec: sec}, func() {
		s.stats.addSweep(sec, len(res.Cells), gridLRSSweeps(res))
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
	nw.writeData(data)
}

// writeData emits one already-encoded JSON value as an NDJSON line.
func (nw *ndjsonWriter) writeData(data []byte) {
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

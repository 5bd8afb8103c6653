package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/sweep"
)

// progressEvent is one live-convergence delta on a circuit's watch
// stream. Kind is one of:
//
//	solve_start — a solve began (Solve numbers solves per server lifetime)
//	iter        — one OGWS iteration (Iter carries λ-step, violations,
//	              duality gap, and the rc.EvalStats work delta)
//	solve_done  — the solve finished (summary fields, never the full X)
//	sweep_start / cell / sweep_done — the sweep analogues; cell and iter
//	              carry Row/Col grid positions
//	mc_start / sample / mc_done — the Monte-Carlo analogues; sample
//	              carries the absolute sample index, mc_done the yield
//	corners_start / corner / corners_done — the corner-sweep analogues;
//	              corner carries the corner name
//	error       — the run failed; every failed run logs one after its
//	              *_start event
type progressEvent struct {
	Kind  string `json:"kind"`
	Solve int64  `json:"solve,omitempty"`
	Row   int    `json:"row,omitempty"`
	Col   int    `json:"col,omitempty"`
	// Iter is present on kind "iter".
	Iter *core.IterProgress `json:"iter,omitempty"`
	// Solve/cell summary fields (kinds solve_done and cell).
	Iterations int     `json:"iterations,omitempty"`
	Converged  bool    `json:"converged,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
	Area       float64 `json:"area,omitempty"`
	SolveSec   float64 `json:"solve_sec,omitempty"`
	// Sample is the absolute sample index on kind "sample", Yield the
	// delay-constraint yield on "mc_done", Corner the corner name on
	// "corner" events.
	Sample int     `json:"sample,omitempty"`
	Yield  float64 `json:"yield,omitempty"`
	Corner string  `json:"corner,omitempty"`
	// Dedup marks a solve answered from the durable store without running.
	Dedup bool   `json:"dedup,omitempty"`
	Error string `json:"error,omitempty"`
}

// watchResponse is the long-poll GET /watch payload: the events after the
// request cursor, the cursor to pass next, and whether retention evicted
// events between the two (the watcher missed some and should resync its
// notion of state from what follows).
type watchResponse struct {
	Key    string        `json:"key"`
	Events []delta.Event `json:"events"`
	Next   uint64        `json:"next"`
	Gapped bool          `json:"gapped,omitempty"`
}

// maxWatchWait bounds a long-poll; clients repeat with the returned
// cursor, exactly like the farm's lease long-poll.
const maxWatchWait = 30 * time.Second

// handleWatch streams a circuit's live solver progress. Long-poll JSON by
// default: GET /watch?key=…&cursor=N&wait=10s parks until events past N
// exist (or the wait elapses) and returns them with the next cursor. With
// sse=1 (or Accept: text/event-stream) the response is an SSE stream:
// one `data:` line per event, `id:` carrying the cursor so a reconnecting
// client resumes via Last-Event-ID.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := q.Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "watch: key query parameter is required")
		return
	}
	if s.cache.get(key) == nil {
		writeError(w, http.StatusNotFound, "watch: no cached circuit for key %q (register it first; it may have been evicted)", key)
		return
	}
	cursor := uint64(0)
	if c := q.Get("cursor"); c != "" {
		v, err := strconv.ParseUint(c, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "watch: bad cursor %q: %v", c, err)
			return
		}
		cursor = v
	}
	// One log per cached circuit: runs append to it in turn (the circuit
	// lock serializes them) and watchers cursor through it. It lives as
	// long as the cache entry: eviction closes it, so a parked watcher
	// returns, and a circuit registered again starts a fresh log at
	// version 1, so a watcher that saw the 404 restarts from cursor 0.
	log := s.hub.Log(key)

	sse := q.Get("sse") == "1" || r.Header.Get("Accept") == "text/event-stream"
	if sse {
		// Honor Last-Event-ID over the cursor param on SSE reconnects.
		if last := r.Header.Get("Last-Event-ID"); last != "" {
			if v, err := strconv.ParseUint(last, 10, 64); err == nil {
				cursor = v
			}
		}
		s.watchSSE(w, r, key, log, cursor)
		return
	}

	wait := time.Duration(0)
	if ws := q.Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil {
			writeError(w, http.StatusBadRequest, "watch: bad wait %q: %v", ws, err)
			return
		}
		if d > maxWatchWait {
			d = maxWatchWait
		}
		wait = d
	}
	events, gapped, _ := log.After(cursor)
	if len(events) == 0 && wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		if evs, g, _, err := log.Wait(ctx, cursor); err == nil {
			events, gapped = evs, g
		}
		// A timeout or client disconnect returns the empty set with the
		// caller's own cursor — the poll loop just comes back.
	}
	next := cursor
	if n := len(events); n > 0 {
		next = events[n-1].Version
	}
	writeJSON(w, http.StatusOK, watchResponse{Key: key, Events: events, Next: next, Gapped: gapped})
}

// watchSSE streams events until the client disconnects or the circuit is
// evicted.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, key string, log *delta.Log, cursor uint64) {
	f, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "watch: response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	for {
		events, gapped, done, err := log.Wait(r.Context(), cursor)
		if err != nil {
			return // client gone
		}
		if gapped {
			fmt.Fprintf(w, "event: gap\ndata: {\"gapped\":true}\n\n")
		}
		for _, ev := range events {
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Version, ev.Data)
			cursor = ev.Version
		}
		f.Flush()
		if done {
			return // the circuit was evicted: its log never grows again
		}
	}
}

// watchSweep installs the per-iteration and per-cell hooks feeding a
// sweep's trajectory onto the run's watch log, wrapping (not replacing)
// any OnCell already installed for NDJSON streaming.
func (rn *run) watchSweep(opt *sweep.Options) {
	opt.OnProgress = func(row, col int, p core.IterProgress) {
		rn.emit(progressEvent{Kind: "iter", Row: row, Col: col, Iter: &p})
	}
	prev := opt.OnCell
	opt.OnCell = func(c *sweep.Cell) {
		if prev != nil {
			prev(c)
		}
		rn.emit(progressEvent{
			Kind: "cell", Row: c.Row, Col: c.Col,
			Iterations: c.Result.Iterations, Converged: c.Result.Converged,
			Gap: c.Result.Gap, Area: c.Result.Area, SolveSec: c.SolveSec,
		})
	}
}

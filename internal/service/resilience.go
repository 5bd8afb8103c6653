package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// admitSolve is the overload gate every solve and sweep request passes
// BEFORE touching the per-circuit lock or the solve semaphore. Those two
// queues are unbounded: a burst would park goroutines on them without
// limit, each pinning a decoded request body, until the listener ran out
// of memory long after latency had become useless. The gate bounds the
// total number of admitted-but-unfinished requests at MaxQueuedSolves
// and sheds the excess immediately with 503 + Retry-After — the one
// response an overloaded server can still afford to send. A draining
// server (see Drain) sheds everything the same way.
//
// Returns false with the response already written when the request was
// shed; on true the caller owes an inflight decrement (see begin and
// run.end).
func (s *Server) admitSolve(w http.ResponseWriter, what string) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%s: server is draining", what)
		return false
	}
	if n := s.inflight.Add(1); int(n) > s.opt.MaxQueuedSolves {
		s.inflight.Add(-1)
		s.stats.addOverloadShed()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"%s: solve queue full (%d requests in flight, bound %d)", what, n-1, s.opt.MaxQueuedSolves)
		return false
	}
	return true
}

// Drain gracefully quiesces the server for shutdown. New solve and sweep
// requests are shed with 503 from the moment Drain is called; requests
// already admitted get until ctx expires to finish. Once the server is
// idle — or the deadline forces the issue — every unfinished farm run is
// cancelled (unblocking any request still parked in Coordinator.await)
// and the durable store writes a final checkpoint, so the next boot
// replays one compact snapshot instead of the whole journal. Returns
// ctx's error when in-flight requests outlived the deadline; the final
// checkpoint is attempted regardless.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var errs []error
	if err := s.awaitIdle(ctx); err != nil {
		errs = append(errs, fmt.Errorf("drain: %d request(s) still in flight: %w", s.inflight.Load(), err))
	}
	if s.opt.Farm != nil {
		if n := s.opt.Farm.CancelRuns("coordinator draining"); n > 0 {
			errs = append(errs, fmt.Errorf("drain: cancelled %d unfinished farm run(s)", n))
		}
	}
	if s.opt.Store != nil {
		if err := s.opt.Store.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("drain: final checkpoint: %w", err))
		}
	}
	if len(errs) > 0 {
		// Every partial failure surfaces; the first is the cause shutdown
		// logs care about.
		msg := errs[0].Error()
		for _, e := range errs[1:] {
			msg += "; " + e.Error()
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// awaitIdle blocks until no admitted request remains in flight or ctx
// expires. Polling (rather than a WaitGroup) keeps admitSolve a single
// atomic on the hot path; 2ms granularity is far below any solve.
func (s *Server) awaitIdle(ctx context.Context) error {
	if s.inflight.Load() == 0 {
		return nil
	}
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if s.inflight.Load() == 0 {
				return nil
			}
		}
	}
}

// storeFailureThreshold is how many consecutive store write failures
// flip the server to degraded (read-only) store mode.
const storeFailureThreshold = 3

// storeGate is the service's degraded store mode. The durable store is
// an amortization, not a ledger — a solve whose persistence fails still
// returns its bytes — so when the disk goes bad (full, yanked, fault-
// injected) the right failure mode is to stop burning a write syscall
// plus an fsync per solve on a store that cannot accept them. After
// storeFailureThreshold consecutive write failures the gate flips to
// degraded (read-only) mode: writes are skipped and counted, reads and
// the in-memory state keep serving. One probe write per probe interval
// is let through; the first to succeed flips the gate back to rw. Both
// transitions and every skipped write surface in GET /stats
// (store_mode, store_degrades, store_recoveries, store_writes_skipped).
type storeGate struct {
	mu        sync.Mutex
	probe     time.Duration
	consec    int  // consecutive failures while rw
	degraded  bool // true = read-only mode
	lastProbe time.Time

	degrades   int64
	recoveries int64
	skipped    int64
}

// allow reports whether a write should be attempted now. In rw mode
// every write goes through; in degraded mode only one probe per
// interval does, and everything else is skipped and counted.
func (g *storeGate) allow(now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.degraded {
		return true
	}
	if now.Sub(g.lastProbe) >= g.probe {
		g.lastProbe = now
		return true
	}
	g.skipped++
	return false
}

// success records a completed write: the failure streak resets, and a
// degraded gate recovers to rw (the successful write was its probe).
func (g *storeGate) success() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.consec = 0
	if g.degraded {
		g.degraded = false
		g.recoveries++
	}
}

// failure records a failed write. In rw mode it advances the streak and
// flips to degraded at the threshold; in degraded mode it is a failed
// probe — stay degraded, the probe clock was already stamped by allow.
func (g *storeGate) failure(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.degraded {
		return
	}
	g.consec++
	if g.consec >= storeFailureThreshold {
		g.degraded = true
		g.degrades++
		g.lastProbe = now
	}
}

// mode returns "rw" or "degraded" — the /stats store_mode field.
func (g *storeGate) mode() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.degraded {
		return "degraded"
	}
	return "rw"
}

func (g *storeGate) counters() (degrades, recoveries, skipped int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.degrades, g.recoveries, g.skipped
}

package service

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/api"
	"repro/internal/fault"
	"repro/internal/store"
)

// statsOf fetches and decodes GET /stats.
func statsOf(t testing.TB, s *Server) Stats {
	t.Helper()
	w := do(t, s, "GET", "/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body.String())
	}
	return decodeAs[Stats](t, w)
}

// TestOverloadShed503WithRetryAfter pins the admission gate: once
// MaxQueuedSolves requests are in flight, the next solve and sweep are
// shed immediately with 503 + Retry-After and counted, and the gate
// reopens as soon as a slot frees.
func TestOverloadShed503WithRetryAfter(t *testing.T) {
	s := New(Options{MaxQueuedSolves: 1})
	key := registerC17(t, s, 11).Key

	// Fill the gate as an admitted request would, without the race of
	// timing a real long-running solve.
	s.inflight.Add(1)
	for _, req := range []struct{ path, body string }{
		{"/solve", `{"key":"` + key + `","max_iterations":2}`},
		{"/sweep", `{"key":"` + key + `","max_iterations":2}`},
	} {
		w := do(t, s, "POST", req.path, req.body)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s at capacity: code %d %s, want 503", req.path, w.Code, w.Body.String())
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("%s shed without a Retry-After header", req.path)
		}
		if !strings.Contains(w.Body.String(), "queue full") {
			t.Fatalf("%s shed body %q, want queue-full error", req.path, w.Body.String())
		}
	}
	if st := statsOf(t, s); st.OverloadSheds != 2 {
		t.Fatalf("overload_sheds = %d, want 2", st.OverloadSheds)
	}

	// Slot freed: the identical request is admitted and solves.
	s.inflight.Add(-1)
	if w := do(t, s, "POST", "/solve", `{"key":"`+key+`","max_iterations":2}`); w.Code != http.StatusOK {
		t.Fatalf("solve after release: %d %s", w.Code, w.Body.String())
	}
	if n := s.inflight.Load(); n != 0 {
		t.Fatalf("inflight = %d after requests finished, want 0", n)
	}
}

// TestDrainQuiescesServer pins the graceful-shutdown half of the service
// (the ogwsd SIGTERM path): a drained server sheds new work with 503,
// waits for in-flight requests, cancels outstanding farm runs so no
// request stays parked on a dead fleet, and writes a final store
// checkpoint so the next boot replays a compact snapshot.
func TestDrainQuiescesServer(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coord := farm.New(farm.Options{})
	s := New(Options{Store: st, Farm: coord})
	key := registerC17(t, s, 23).Key
	if w := do(t, s, "POST", "/solve", `{"key":"`+key+`","max_iterations":2}`); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}

	// A farm run with no workers parks forever; Drain must kill it.
	runErr := make(chan error, 1)
	go func() {
		_, err := coord.Solve(context.Background(), api.CircuitSpec{Key: "drain-grid", Grid: &api.GridSpec{Width: 4, Layers: 3}}, api.SolveJob{MaxIterations: 2})
		runErr <- err
	}()
	waitFor(t, "farm run queued", func() bool { return coord.StatsSnapshot().JobsQueued > 0 })

	if err := s.Drain(context.Background()); err == nil {
		t.Fatal("Drain with an unfinished farm run reported nil (the cancellation should surface)")
	}
	select {
	case err := <-runErr:
		if err == nil || !strings.Contains(err.Error(), "draining") {
			t.Fatalf("parked farm run got %v, want a draining error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("farm run still parked after Drain")
	}

	// New work is shed with 503 + Retry-After.
	w := do(t, s, "POST", "/solve", `{"key":"`+key+`","max_iterations":2}`)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("solve on drained server: %d %s, want 503 draining", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("drained shed without a Retry-After header")
	}

	// The final checkpoint compacted the journal: everything lives in the
	// checkpoint file, and a fresh store on the directory sees it all.
	if fi, err := os.Stat(filepath.Join(dir, "journal.ndjson")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after drain checkpoint: size %v err %v, want empty", fi, err)
	}
	records := st.Len()
	st.Close()
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != records {
		t.Fatalf("reopened store has %d records, want %d", st2.Len(), records)
	}
}

// TestDrainDeadlineBoundsTheWait pins the bounded half of the drain: a
// request that outlives the deadline does not hold shutdown hostage —
// Drain returns the context error, and still checkpoints the store.
func TestDrainDeadlineBoundsTheWait(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st})
	registerC17(t, s, 29)

	s.inflight.Add(1) // a request that never finishes
	defer s.inflight.Add(-1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.Drain(ctx)
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("Drain past deadline: %v, want in-flight error", err)
	}
	// The checkpoint still landed despite the stuck request.
	if fi, err := os.Stat(filepath.Join(dir, "journal.ndjson")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after deadline drain: size %v err %v, want empty", fi, err)
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStoreDegradesAndRecovers drives the storeGate end to end on an
// injected clock: three consecutive injected journal-append failures flip
// the server to degraded (read-only) store mode, further writes are
// skipped without touching the bad disk, and once the fault clears the
// first probe past the interval recovers rw mode — all visible in /stats.
func TestStoreDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// Exactly three write faults, then a healthy disk again.
	plan := fault.New(7, fault.Rule{Op: "fs:write", Kind: fault.Err, Count: 3})
	st, err := store.Open(dir, store.Options{FS: fault.NewFS(plan, fault.OS())})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var offset atomic.Int64 // injected clock: epoch + offset
	now := func() time.Time { return time.Unix(0, 0).Add(time.Duration(offset.Load())) }
	s := New(Options{
		Store:                 st,
		StoreFailureThreshold: 3,
		StoreProbeInterval:    time.Minute,
		Now:                   now,
	})

	// Three registrations, three failed persists: the gate flips.
	for seed := int64(1); seed <= 3; seed++ {
		registerC17(t, s, seed)
	}
	st1 := statsOf(t, s)
	if st1.StoreMode != "degraded" || st1.StoreDegrades != 1 {
		t.Fatalf("after 3 write failures: mode %q degrades %d, want degraded/1", st1.StoreMode, st1.StoreDegrades)
	}
	if st1.StoreErrors != 3 {
		t.Fatalf("store_errors = %d, want 3", st1.StoreErrors)
	}

	// Degraded: the next persist is skipped (no disk touch, no new error),
	// and the request itself still succeeds — read-only mode, not an
	// outage.
	registerC17(t, s, 4)
	st2 := statsOf(t, s)
	if st2.StoreWritesSkipped == 0 {
		t.Fatal("degraded-mode persist was not counted as skipped")
	}
	if st2.StoreErrors != 3 {
		t.Fatalf("skipped write touched the disk: store_errors %d, want 3", st2.StoreErrors)
	}

	// Advance the injected clock past the probe interval: the next persist
	// is the probe, the fault budget is exhausted, so it succeeds and the
	// gate recovers.
	offset.Store(int64(2 * time.Minute))
	registerC17(t, s, 5)
	st3 := statsOf(t, s)
	if st3.StoreMode != "rw" || st3.StoreRecoveries != 1 {
		t.Fatalf("after probe: mode %q recoveries %d, want rw/1", st3.StoreMode, st3.StoreRecoveries)
	}
	if plan.Total() != 3 {
		t.Fatalf("injected %d faults, want exactly 3", plan.Total())
	}

	// Recovered: writes flow again.
	before := st.Len()
	registerC17(t, s, 6)
	if st.Len() != before+1 {
		t.Fatalf("post-recovery persist did not land: %d records, want %d", st.Len(), before+1)
	}
}

// flipCtx is a request context whose Err flips to Canceled after a fixed
// number of polls — a deterministic stand-in for a client disconnecting
// mid-solve (the solver polls Err at every iteration boundary).
type flipCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestLocalSolveCancelledMidFlight pins the deadline propagation into the
// local solve path: a client gone mid-solve stops the solver at the next
// iteration boundary with 503 and a solves_cancelled count, instead of
// burning the slot to completion.
func TestLocalSolveCancelledMidFlight(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 31).Key

	// Poll 1 is acquireSolveSlot's post-acquire check; poll 2 is the first
	// iteration boundary. Cancelling after poll 2 stops iteration 2.
	ctx := &flipCtx{Context: context.Background(), after: 2}
	r := httptest.NewRequest("POST", "/solve", strings.NewReader(`{"key":"`+key+`","max_iterations":50}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "cancelled") {
		t.Fatalf("cancelled solve: %d %s, want 503 cancelled", w.Code, w.Body.String())
	}
	if st := statsOf(t, s); st.SolvesCancelled != 1 {
		t.Fatalf("solves_cancelled = %d, want 1", st.SolvesCancelled)
	}
	if st := statsOf(t, s); st.Solves != 0 {
		t.Fatalf("cancelled solve was counted as completed (%d)", st.Solves)
	}
}

// TestUnencodableResultAnswers422 pins the response path for a result
// JSON cannot carry. c432 under a delay bound a hundred times tighter than
// the derived one drives coupled wires into contact, and their exact
// coupling term is +Inf. Such a solve must answer 422 with a JSON error
// body, not 200 with an empty one, and must leave no trace: its save_as is
// not kept, nothing is persisted, it is not counted as a solve, and the
// store is not pushed toward degraded mode. After three such solves the
// store is still rw and the next client's save_as solve is persisted.
func TestUnencodableResultAnswers422(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st, StoreFailureThreshold: 3})
	c432 := decodeAs[registerResponse](t, do(t, s, "POST", "/circuits", `{"synthetic":"c432"}`))
	records := st.Len()
	tight := fmt.Sprintf(`{"key":%q,"a0":%g,"max_iterations":2,"no_dedup":true,"save_as":"tight"}`, c432.Key, 0.01*c432.Bounds.A0)
	for i := 0; i < 3; i++ {
		w := do(t, s, "POST", "/solve", tight)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("solve at 0.01×A0: %d %q, want 422", w.Code, w.Body.String())
		}
		if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, "unsupported value") {
			t.Fatalf("422 body %q does not name the encoding failure", e.Error)
		}
	}
	if w := do(t, s, "GET", "/results?key="+c432.Key+"&name=tight", ""); w.Code != http.StatusNotFound {
		t.Fatalf("the 422 solves' save_as was kept: GET /results %d", w.Code)
	}
	if st.Len() != records {
		t.Fatalf("the 422 solves persisted %d records", st.Len()-records)
	}
	if got := statsOf(t, s); got.Solves != 0 || got.StoreMode != "rw" || got.StoreDegrades != 0 || got.StoreErrors != 0 || got.StoreWritesSkipped != 0 {
		t.Fatalf("the 422 solves left a trace: solves %d, store mode %q degrades %d errors %d skipped %d",
			got.Solves, got.StoreMode, got.StoreDegrades, got.StoreErrors, got.StoreWritesSkipped)
	}

	key := registerC17(t, s, 17).Key
	solveRaw(t, s, fmt.Sprintf(`{"key":%q,"max_iterations":3,"save_as":"after"}`, key))
	var saved storedResult
	if ok, err := st.Get(resultPrefix+key+"/after", &saved); err != nil || !ok || saved.Result == nil {
		t.Fatalf("save_as after the unencodable solves was not persisted (found %v, err %v)", ok, err)
	}
}

// TestUnencodablePutIsNotADiskFailure pins storePut's split: a value JSON
// cannot encode counts as a store error, but it never reached the disk, so
// a threshold's worth of them leaves the store rw, and the next put lands.
func TestUnencodablePutIsNotADiskFailure(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st, StoreFailureThreshold: 3})
	for i := 0; i < 3; i++ {
		s.storePut("bad", math.Inf(1))
	}
	s.storePut("good", 1)
	if got := statsOf(t, s); got.StoreErrors != 3 || got.StoreMode != "rw" || got.StoreDegrades != 0 || got.StoreWritesSkipped != 0 {
		t.Fatalf("store errors %d, mode %q, degrades %d, skipped %d; want 3, rw, 0, 0",
			got.StoreErrors, got.StoreMode, got.StoreDegrades, got.StoreWritesSkipped)
	}
	var v int
	if ok, err := st.Get("good", &v); err != nil || !ok {
		t.Fatalf("the put after the unencodable ones was not stored (found %v, err %v)", ok, err)
	}
}

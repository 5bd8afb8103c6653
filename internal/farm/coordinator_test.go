package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/sweep"
)

// testClock is the injected coordinator clock: reaping tests advance time
// explicitly and call reap directly, so no test ever sleeps for a TTL.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testCoordinator builds a coordinator on the injected clock with a
// 1-minute heartbeat and 3-minute lease TTL.
func testCoordinator(clock *testClock) *Coordinator {
	return New(Options{
		HeartbeatInterval: time.Minute,
		Now:               clock.Now,
	})
}

func register(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	resp, err := c.register(api.RegisterRequest{Version: api.Version, Numerics: core.Numerics, Name: name})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return resp.WorkerID
}

// gridSpec is the 4×3 coupled mesh the queue-logic tests sweep; the cells
// are filled with fabricated results, so the mesh itself is never solved.
func gridSpec() api.CircuitSpec {
	return api.CircuitSpec{
		Key:  bench.GridKey(4, 3, true),
		Grid: &api.GridSpec{Width: 4, Layers: 3, Coupled: true},
	}
}

func gridInstance(t *testing.T) (*bench.Instance, bench.Bounds) {
	t.Helper()
	inst, b, err := bench.GridInstance(4, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	return inst, b
}

// startSweep launches a distributed sweep and returns its result channel.
func startSweep(t *testing.T, ctx context.Context, c *Coordinator, opt sweep.Options) chan error {
	t.Helper()
	inst, b := gridInstance(t)
	if opt.Bounds == nil {
		opt.Bounds = &b
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Sweep(ctx, gridSpec(), inst, opt)
		done <- err
	}()
	return done
}

// lease long-polls one job, failing the test on refusal.
func lease(t *testing.T, c *Coordinator, workerID string) (*api.Job, string) {
	t.Helper()
	job, token, err := c.leaseJob(context.Background(), workerID, 5*time.Second)
	if err != nil {
		t.Fatalf("lease for %s: %v", workerID, err)
	}
	if job == nil {
		t.Fatalf("lease for %s: no job within the long-poll window", workerID)
	}
	return job, token
}

func cellLine(row, col int) api.ResultLine {
	return api.ResultLine{Cell: &api.CellResult{
		Row: row, Col: col,
		Result: &core.Result{X: []float64{float64(100*row + col)}},
		Dual:   &core.DualState{},
	}}
}

// postResult streams NDJSON lines to the result endpoint.
func postResult(c *Coordinator, jobID int64, token string, lines ...api.ResultLine) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		enc.Encode(l) //nolint:errcheck // test fixtures always marshal
	}
	req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/farm/v1/result?job=%d&lease=%s", jobID, token), &buf)
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, req)
	return rr
}

// finishJob streams every cell of a sweep job plus the done marker.
func finishJob(t *testing.T, c *Coordinator, job *api.Job, token string) {
	t.Helper()
	lines := make([]api.ResultLine, 0, len(job.Sweep.Cells)+1)
	for _, cell := range job.Sweep.Cells {
		lines = append(lines, cellLine(cell.Row, cell.Col))
	}
	lines = append(lines, api.ResultLine{Done: true})
	if rr := postResult(c, job.ID, token, lines...); rr.Code != http.StatusOK {
		t.Fatalf("result stream for job %d: %d %s", job.ID, rr.Code, rr.Body)
	}
}

func TestRegisterVersionMismatch(t *testing.T) {
	c := testCoordinator(newTestClock())
	if _, err := c.register(api.RegisterRequest{Version: api.Version + 1, Numerics: core.Numerics}); err == nil {
		t.Fatal("register with a future protocol version succeeded")
	}
	// And over the wire: a skewed worker gets a 400, not a lease.
	body, _ := json.Marshal(api.RegisterRequest{Version: 0, Numerics: core.Numerics})
	req := httptest.NewRequest(http.MethodPost, "/farm/v1/register", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("version-mismatch register returned %d, want 400", rr.Code)
	}
}

// TestRegisterNumericsMismatch: a worker built on other solver arithmetic
// (an older build of the same protocol) is refused like protocol skew, so
// no grid mixes cells solved under two numerics.
func TestRegisterNumericsMismatch(t *testing.T) {
	c := testCoordinator(newTestClock())
	for _, n := range []int{core.Numerics - 1, core.Numerics + 1} {
		if _, err := c.register(api.RegisterRequest{Version: api.Version, Numerics: n}); err == nil {
			t.Fatalf("register with numerics %d succeeded under core.Numerics %d", n, core.Numerics)
		}
	}
	// A worker built before the field existed sends no numerics at all.
	body := fmt.Sprintf(`{"version":%d,"name":"old"}`, api.Version)
	req := httptest.NewRequest(http.MethodPost, "/farm/v1/register", strings.NewReader(body))
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("numerics-mismatch register returned %d, want 400", rr.Code)
	}
	if st := c.StatsSnapshot(); len(st.Workers) != 0 {
		t.Fatalf("a refused worker is on the books: %+v", st.Workers)
	}
}

// TestWarmSweepJobFlow drives a full warm wavefront by hand: the spine
// job goes out first, the row-tail jobs appear only after the spine is
// fully recorded, and each row job carries its spine cell's sizes and
// dual in the lease.
func TestWarmSweepJobFlow(t *testing.T) {
	c := testCoordinator(newTestClock())
	w := register(t, c, "solo")
	opt := sweep.Options{DelayScale: []float64{1, 1.1}, NoiseScale: []float64{1, 1.2}, MaxIterations: 2}
	done := startSweep(t, context.Background(), c, opt)

	spineJob, token := lease(t, c, w)
	if spineJob.Sweep == nil || !spineJob.Sweep.Chain || !spineJob.Sweep.ReturnDual {
		t.Fatalf("first job is not the chained spine: %+v", spineJob.Sweep)
	}
	if n := len(spineJob.Sweep.Cells); n != 2 {
		t.Fatalf("spine has %d cells, want 2 rows", n)
	}
	if st := c.StatsSnapshot(); st.JobsQueued != 0 {
		t.Fatalf("row jobs enqueued before the spine finished: %d queued", st.JobsQueued)
	}
	finishJob(t, c, spineJob, token)

	for i := 0; i < 2; i++ {
		rowJob, rowToken := lease(t, c, w)
		if rowJob.Sweep == nil || !rowJob.Sweep.Chain {
			t.Fatalf("row job %d is not chained", i)
		}
		row := rowJob.Sweep.Cells[0].Row
		wantSeed := []float64{float64(100 * row)} // the fabricated spine result
		if len(rowJob.Sweep.Seed) != 1 || rowJob.Sweep.Seed[0] != wantSeed[0] {
			t.Fatalf("row %d job seed = %v, want spine sizes %v", row, rowJob.Sweep.Seed, wantSeed)
		}
		if rowJob.Sweep.Dual == nil {
			t.Fatalf("row %d job shipped no dual state", row)
		}
		finishJob(t, c, rowJob, rowToken)
	}
	if err := <-done; err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	st := c.StatsSnapshot()
	if st.JobsCompleted != 3 || st.RunsCompleted != 1 || st.JobsRequeued != 0 {
		t.Fatalf("stats after clean run: %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].CellsSolved != 4 || st.Workers[0].JobsCompleted != 3 {
		t.Fatalf("worker counters: %+v", st.Workers)
	}
}

// TestLeaseExpiryReapsAndRequeues pins the failure path end to end: a
// silent worker is reaped after its TTL, its leased job re-queues and
// re-leases to a survivor, and the dead worker's stale token is refused
// both for results (409) and heartbeats (gone).
func TestLeaseExpiryReapsAndRequeues(t *testing.T) {
	clock := newTestClock()
	c := testCoordinator(clock)
	w1 := register(t, c, "doomed")
	w2 := register(t, c, "survivor")
	done := startSweep(t, context.Background(), c, sweep.Options{DelayScale: []float64{1, 1.1}, MaxIterations: 2})

	job1, stale := lease(t, c, w1)
	// w2 heartbeats; w1 goes silent past its TTL (3× the 1-minute beat).
	clock.Advance(2 * time.Minute)
	if err := c.beat(w2); err != nil {
		t.Fatalf("live worker heartbeat refused: %v", err)
	}
	clock.Advance(2 * time.Minute)
	c.reap()

	st := c.StatsSnapshot()
	if st.WorkersReaped != 1 || st.JobsRequeued != 1 || st.LiveWorkers != 1 {
		t.Fatalf("after reap: %+v", st)
	}
	if err := c.beat(w1); !errors.Is(err, errUnknownWorker) {
		t.Fatalf("reaped worker heartbeat: %v, want errUnknownWorker", err)
	}

	// Result-after-reap: the stale lease must be refused per line.
	if rr := postResult(c, job1.ID, stale, cellLine(0, 0)); rr.Code != http.StatusConflict {
		t.Fatalf("stale-lease result got %d, want 409", rr.Code)
	}

	// The survivor re-leases the identical job message.
	job2, token := lease(t, c, w2)
	if job2.ID != job1.ID || len(job2.Sweep.Cells) != len(job1.Sweep.Cells) {
		t.Fatalf("requeued job changed: had %d, got %d", job1.ID, job2.ID)
	}
	finishJob(t, c, job2, token)
	if err := <-done; err != nil {
		t.Fatalf("sweep failed after reap and re-run: %v", err)
	}
}

// TestHeartbeatKeepsLeases: a worker that beats on cadence is never
// reaped, no matter how much total time passes.
func TestHeartbeatKeepsLeases(t *testing.T) {
	clock := newTestClock()
	c := testCoordinator(clock)
	w := register(t, c, "steady")
	for i := 0; i < 10; i++ {
		clock.Advance(time.Minute)
		if err := c.beat(w); err != nil {
			t.Fatalf("beat %d refused: %v", i, err)
		}
		c.reap()
	}
	if st := c.StatsSnapshot(); st.WorkersReaped != 0 || st.LiveWorkers != 1 {
		t.Fatalf("steady worker reaped: %+v", st)
	}
}

// TestRequeueOrderingDeterminism: jobs reaped back from a dead worker
// re-enter the queue at their original (run, seq) positions, so the
// survivor drains them in the exact order a fresh dispatch would have
// produced.
func TestRequeueOrderingDeterminism(t *testing.T) {
	clock := newTestClock()
	c := testCoordinator(clock)
	w1 := register(t, c, "doomed")
	w2 := register(t, c, "survivor")
	// A cold sweep fans out one independent job per row, all queued at
	// once — three jobs with seqs 0, 1, 2.
	done := startSweep(t, context.Background(), c, sweep.Options{
		DelayScale: []float64{1, 1.1, 1.2}, NoiseScale: []float64{1, 1.2},
		Cold: true, MaxIterations: 2,
	})
	jobA, _ := lease(t, c, w1)      // row 0
	jobB, _ := lease(t, c, w1)      // row 1
	jobC, tokenC := lease(t, c, w2) // row 2
	if r := jobA.Sweep.Cells[0].Row; r != 0 {
		t.Fatalf("first lease is row %d, want 0", r)
	}

	clock.Advance(2 * time.Minute)
	if err := c.beat(w2); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	c.reap()

	// The survivor must now drain w1's jobs front-of-queue in seq order:
	// row 0 before row 1, regardless of lease or reap timing.
	for want, wantJob := range []*api.Job{jobA, jobB} {
		j, token := lease(t, c, w2)
		if j.ID != wantJob.ID || j.Sweep.Cells[0].Row != want {
			t.Fatalf("requeued lease out of order: got job %d row %d, want job %d row %d",
				j.ID, j.Sweep.Cells[0].Row, wantJob.ID, want)
		}
		finishJob(t, c, j, token)
	}
	finishJob(t, c, jobC, tokenC)
	if err := <-done; err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
}

// TestResultAfterCancel: cancelling the dispatching request kills the run;
// in-flight result streams get 410 and queued jobs are dropped.
func TestResultAfterCancel(t *testing.T) {
	c := testCoordinator(newTestClock())
	w := register(t, c, "w")
	ctx, cancel := context.WithCancel(context.Background())
	done := startSweep(t, ctx, c, sweep.Options{DelayScale: []float64{1, 1.1}, MaxIterations: 2})
	job, token := lease(t, c, w)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if rr := postResult(c, job.ID, token, cellLine(0, 0)); rr.Code != http.StatusGone {
		t.Fatalf("result for a cancelled run got %d, want 410", rr.Code)
	}
}

// TestDuplicateCellsDropped: at-least-once execution means a re-run can
// replay already-recorded cells; the first write wins and duplicates are
// not double-counted.
func TestDuplicateCellsDropped(t *testing.T) {
	c := testCoordinator(newTestClock())
	w := register(t, c, "w")
	done := startSweep(t, context.Background(), c, sweep.Options{DelayScale: []float64{1, 1.1}, MaxIterations: 2})
	job, token := lease(t, c, w)
	if rr := postResult(c, job.ID, token,
		cellLine(0, 0), cellLine(0, 0), cellLine(1, 0), cellLine(0, 0),
		api.ResultLine{Done: true}); rr.Code != http.StatusOK {
		t.Fatalf("stream with duplicates refused: %d %s", rr.Code, rr.Body)
	}
	if err := <-done; err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if st := c.StatsSnapshot(); st.Workers[0].CellsSolved != 2 {
		t.Fatalf("duplicates were credited: %+v", st.Workers)
	}
}

// TestWorkerErrorFailsRun: an in-band error line is a deterministic
// failure — the run dies instead of re-queueing a job that would fail
// identically.
func TestWorkerErrorFailsRun(t *testing.T) {
	c := testCoordinator(newTestClock())
	w := register(t, c, "w")
	done := startSweep(t, context.Background(), c, sweep.Options{DelayScale: []float64{1, 1.1}, MaxIterations: 2})
	job, token := lease(t, c, w)
	if rr := postResult(c, job.ID, token, api.ResultLine{Error: "infeasible bounds"}); rr.Code != http.StatusOK {
		t.Fatalf("error line refused: %d", rr.Code)
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "infeasible bounds") {
		t.Fatalf("sweep survived a terminal worker error: %v", err)
	}
	if st := c.StatsSnapshot(); st.RunsFailed != 1 {
		t.Fatalf("failed run not counted: %+v", st)
	}
}

// TestMidStreamEOFKeepsJobLeased: a stream that dies without a done
// marker leaves the job leased (the reaper owns its fate) and keeps the
// cells that did land.
func TestMidStreamEOFKeepsJobLeased(t *testing.T) {
	clock := newTestClock()
	c := testCoordinator(clock)
	w1 := register(t, c, "doomed")
	w2 := register(t, c, "survivor")
	done := startSweep(t, context.Background(), c, sweep.Options{DelayScale: []float64{1, 1.1}, MaxIterations: 2})

	job, token1 := lease(t, c, w1)
	// One cell lands, then the stream ends with no done marker — the
	// worker died mid-job. The handler reports the truncation (400) but
	// keeps the cell and leaves the job leased for the reaper.
	if rr := postResult(c, job.ID, token1, cellLine(0, 0)); rr.Code != http.StatusBadRequest {
		t.Fatalf("truncated stream got %d, want 400", rr.Code)
	}
	if st := c.StatsSnapshot(); st.JobsLeased != 1 || st.Workers[0].CellsSolved != 1 {
		t.Fatalf("after truncated stream: %+v", st)
	}

	clock.Advance(2 * time.Minute)
	if err := c.beat(w2); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	c.reap()
	j2, token2 := lease(t, c, w2)
	if j2.ID != job.ID {
		t.Fatalf("reaped job %d did not re-lease, got %d", job.ID, j2.ID)
	}
	// The re-run replays the whole batch; the landed cell deduplicates.
	finishJob(t, c, j2, token2)
	if err := <-done; err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if st := c.StatsSnapshot(); st.Workers[0].CellsSolved != 1 || st.Workers[1].CellsSolved != 1 {
		t.Fatalf("cell credit after re-run: %+v", st.Workers)
	}
}

// TestSolveJobFlow covers the solve path: one job, its shipped inputs
// echoed, the result recorded once.
func TestSolveJobFlow(t *testing.T) {
	c := testCoordinator(newTestClock())
	w := register(t, c, "w")
	_, b := gridInstance(t)
	solveDone := make(chan *api.SolveResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := c.Solve(context.Background(), gridSpec(), api.SolveJob{
			Bounds: b, MaxIterations: 3, Warm: true, Seed: []float64{1, 2, 3},
		})
		solveDone <- res
		errc <- err
	}()
	job, token := lease(t, c, w)
	if job.Solve == nil || !job.Solve.Warm || job.Solve.Bounds != b {
		t.Fatalf("solve job did not ship its inputs: %+v", job.Solve)
	}
	want := &api.SolveResult{Result: &core.Result{X: []float64{9}}, Workers: 4, SolveSec: 0.5}
	if rr := postResult(c, job.ID, token, api.ResultLine{Solve: want}, api.ResultLine{Done: true}); rr.Code != http.StatusOK {
		t.Fatalf("solve result refused: %d %s", rr.Code, rr.Body)
	}
	res := <-solveDone
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 || res.Result.X[0] != 9 {
		t.Fatalf("solve result did not round-trip: %+v", res)
	}
	if st := c.StatsSnapshot(); st.Workers[0].SolvesCompleted != 1 {
		t.Fatalf("solve not credited: %+v", st.Workers)
	}
}

// TestLeaseLongPollExpiresOnInjectedClock is the regression test for the
// lease long-poll deadline computed with the wall clock instead of
// Options.Now: an injected-clock test could never drive a parked lease
// request to expiry. Each case parks a long-poll on an empty queue, then
// advances only the fake clock and runs a reap scan (which wakes parked
// polls), or hangs up the request; the poll must resolve from that alone,
// well before any wall-clock wait elapses.
func TestLeaseLongPollExpiresOnInjectedClock(t *testing.T) {
	type outcome struct {
		job   *api.Job
		token string
		err   error
	}
	cases := []struct {
		name    string
		wait    time.Duration
		advance time.Duration
		hangUp  bool
		wantErr error
	}{
		// Plain expiry: the fake clock passes the requested deadline.
		{name: "expires at deadline", wait: 20 * time.Second, advance: 21 * time.Second},
		// An over-long wait is clamped to maxLeaseWait (30s), so
		// advancing just past the clamp must expire it.
		{name: "clamped to MaxLeaseWait", wait: 10 * time.Hour, advance: 31 * time.Second},
		// Advancing past the lease TTL reaps the worker itself; its parked
		// poll must learn it is dead, not time out silently.
		{name: "reaped worker told", wait: 20 * time.Minute, advance: 4 * time.Minute, wantErr: errUnknownWorker},
		// The request's context ends with the clock frozen and no scan to
		// wake the poll: it must return an empty lease, not stay parked.
		{name: "request gone", wait: 20 * time.Minute, hangUp: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newTestClock()
			c := testCoordinator(clock)
			w := register(t, c, "poller")
			ch := make(chan outcome, 1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				j, tok, err := c.leaseJob(ctx, w, tc.wait)
				ch <- outcome{j, tok, err}
			}()
			// The poll must be parked: nothing is queued and the injected
			// clock has not moved.
			select {
			case o := <-ch:
				t.Fatalf("long-poll returned before the clock moved: %+v", o)
			case <-time.After(50 * time.Millisecond):
			}
			if tc.hangUp {
				cancel()
			} else {
				clock.Advance(tc.advance)
				c.reap()
			}
			select {
			case o := <-ch:
				if !errors.Is(o.err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", o.err, tc.wantErr)
				}
				if o.job != nil || o.token != "" {
					t.Fatalf("expired poll returned job %+v token %q", o.job, o.token)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("long-poll did not expire from the injected clock")
			}
		})
	}

	// Zero and negative waits never park at all.
	clock := newTestClock()
	c := testCoordinator(clock)
	w := register(t, c, "impatient")
	for _, wait := range []time.Duration{0, -time.Second} {
		if j, tok, err := c.leaseJob(context.Background(), w, wait); j != nil || tok != "" || err != nil {
			t.Fatalf("leaseJob(wait=%v) = %v, %q, %v; want immediate empty return", wait, j, tok, err)
		}
	}
}

// TestSweepWaitsForLateCallback: a run's last streamed result closes the
// run, but its OnCell callback runs after that, outside the coordinator's
// lock. Sweep must not return while such a callback is still running —
// a caller that streams cells (the service's NDJSON handler) would
// otherwise finish its response under a live callback. Both a completed
// and a cancelled run wait for the callback in flight.
func TestSweepWaitsForLateCallback(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cancel bool
	}{{"complete", false}, {"cancelled", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCoordinator(newTestClock())
			w := register(t, c, "w")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The cell that blocks: the run's last (row 1) when it
			// completes, its first (row 0) when it is cancelled.
			blockRow := 1
			if tc.cancel {
				blockRow = 0
			}
			entered, release := make(chan struct{}), make(chan struct{})
			releaseOnce := sync.OnceFunc(func() { close(release) })
			defer releaseOnce()
			var mu sync.Mutex
			var seen []int
			done := startSweep(t, ctx, c, sweep.Options{
				DelayScale: []float64{1, 1.1}, MaxIterations: 2,
				OnCell: func(cell *sweep.Cell) {
					mu.Lock()
					seen = append(seen, cell.Row)
					mu.Unlock()
					if cell.Row == blockRow {
						close(entered)
						<-release
					}
				},
			})
			job, token := lease(t, c, w)
			lines := []api.ResultLine{cellLine(0, 0)}
			if !tc.cancel {
				lines = append(lines, cellLine(1, 0), api.ResultLine{Done: true})
			}
			posted := make(chan struct{})
			go func() {
				defer close(posted)
				postResult(c, job.ID, token, lines...)
			}()
			<-entered
			if tc.cancel {
				cancel()
			}
			select {
			case err := <-done:
				t.Fatalf("Sweep returned (err %v) while OnCell was still running", err)
			case <-time.After(250 * time.Millisecond):
			}
			releaseOnce()
			err := <-done
			<-posted
			if tc.cancel {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled sweep returned %v", err)
				}
			} else if err != nil {
				t.Fatalf("sweep failed: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if want := blockRow + 1; len(seen) != want {
				t.Fatalf("OnCell saw rows %v, want %d calls", seen, want)
			}
		})
	}
}

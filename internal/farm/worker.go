package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/fault"
)

// WorkerOptions configures one farm worker (cmd/ogws-worker wraps this in
// a flag surface).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. http://host:9090.
	Coordinator string
	// Name labels the worker in the coordinator's /stats.
	Name string
	// CacheSize bounds the worker's local instance cache (default 4):
	// materialized circuit replicas kept across jobs, keyed by the
	// coordinator's own cache keys.
	CacheSize int
	// Fault, when non-nil, is the worker's deterministic fault plan. A
	// "worker:cell" rule of kind Crash injects the fault the farm smoke
	// exercises: the worker dies (RunWorker returns ErrFaultInjected,
	// heartbeats stop) right after streaming the cell the plan selects,
	// leaving its current job leased with the stream open.
	// Wrap Client's transport with fault.NewTransport to fault the
	// coordinator link as well.
	Fault *fault.Plan
	// Backoff schedules the delays between retries of transient
	// coordinator failures (network errors, 5xx): capped exponential with
	// deterministic jitter. The zero value uses the fault.Backoff defaults
	// (100ms base, 5s cap) with a seed derived from Name, so a fleet's
	// retry waves decorrelate instead of stampeding.
	Backoff fault.Backoff
	// MaxRetries bounds consecutive transient failures of one operation
	// (a register/lease round, or one result-stream replay) before the
	// worker gives up; 0 retries until ctx cancels — a worker outlives any
	// coordinator outage by default.
	MaxRetries int
	// LeaseWait is the long-poll window per lease request (default 10s).
	LeaseWait time.Duration
	// Sleep waits between retries, honouring ctx; injectable so tests
	// drive backoff without wall-clock waits.
	Sleep func(ctx context.Context, d time.Duration)
	// Client is the HTTP client (default http.DefaultClient); Logf, when
	// non-nil, receives worker lifecycle lines.
	Client *http.Client
	Logf   func(format string, args ...any)
}

func (o *WorkerOptions) fill() {
	if o.CacheSize <= 0 {
		o.CacheSize = 4
	}
	if o.LeaseWait <= 0 {
		o.LeaseWait = 10 * time.Second
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Backoff.Seed == 0 && o.Name != "" {
		h := fnv.New64a()
		h.Write([]byte(o.Name)) //nolint:errcheck // hash.Write never fails
		o.Backoff.Seed = h.Sum64()
	}
	if o.Sleep == nil {
		o.Sleep = func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
			case <-t.C:
			}
		}
	}
}

// ErrFaultInjected is returned by RunWorker when a "worker:cell" Crash
// rule in WorkerOptions.Fault tripped — the deliberate mid-job death the
// reaping smoke tests rely on.
var ErrFaultInjected = errors.New("farm: worker fault injected")

// permanentError marks failures no retry can fix — protocol refusals like
// a version mismatch. Everything else is presumed transient.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// worker is one running worker's state.
type worker struct {
	opt   WorkerOptions
	id    string
	cells int // cell lines streamed so far, reported when a fault kills the worker

	// Bounded local instance cache in insertion order; replicas are
	// bit-identical across processes (the keys hash every materialization
	// input), so cache hits never change results, only skip the front end.
	cache map[string]*bench.Instance
	order []string
}

func (wk *worker) logf(format string, args ...any) {
	if wk.opt.Logf != nil {
		wk.opt.Logf(format, args...)
	}
}

// RunWorker serves the coordinator until ctx is cancelled (returns nil),
// a permanent refusal lands (returns it), or a configured fault trips
// (returns ErrFaultInjected). Transient failures — a dead or restarting
// coordinator, a dropped lease call, a reap after missed heartbeats —
// never kill the worker: it backs off (capped exponential, deterministic
// jitter) and re-registers for a fresh session, forever by default or up
// to MaxRetries consecutive failures.
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	opt.fill()
	wk := &worker{opt: opt, cache: map[string]*bench.Instance{}}
	failures := 0
	for {
		registered, err := wk.session(ctx)
		if registered {
			// The session made real progress; the next failure starts a
			// fresh backoff ramp.
			failures = 0
		}
		switch {
		case ctx.Err() != nil:
			return nil
		case err == nil:
			return nil
		case errors.Is(err, ErrFaultInjected):
			return err
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return err
		}
		failures++
		if opt.MaxRetries > 0 && failures > opt.MaxRetries {
			return fmt.Errorf("farm worker: giving up after %d consecutive failures: %w", failures-1, err)
		}
		d := opt.Backoff.Delay(failures - 1)
		wk.logf("farm worker: %v; reconnecting in %v (attempt %d)", err, d, failures)
		opt.Sleep(ctx, d)
	}
}

// session registers once and serves leases until a failure tears the
// connection down. The first return reports whether registration
// succeeded — the caller's cue to reset its backoff ramp. A nil error
// means ctx was cancelled (clean shutdown).
func (wk *worker) session(ctx context.Context) (bool, error) {
	var reg api.RegisterResponse
	status, err := wk.postJSON(ctx, "/farm/v1/register", api.RegisterRequest{Version: api.Version, Numerics: core.Numerics, Name: wk.opt.Name}, &reg)
	if status >= 400 && status < 500 {
		// A 4xx refusal (protocol version or numerics skew) is
		// deterministic: retrying the same binary would be refused forever.
		if err == nil {
			err = fmt.Errorf("refused (%d)", status)
		}
		return false, permanentError{fmt.Errorf("farm worker: register: %w", err)}
	}
	if err != nil {
		return false, fmt.Errorf("farm worker: register: %w", err)
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("farm worker: register refused transiently (%d)", status)
	}
	wk.id = reg.WorkerID
	wk.logf("farm worker %s: registered with %s (heartbeat %dms, lease TTL %dms)", wk.id, wk.opt.Coordinator, reg.HeartbeatMillis, reg.LeaseTTLMillis)

	// The worker context dies with the parent, with a heartbeat refusal,
	// or when the worker loop exits (stopping the heartbeat goroutine).
	wctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	go wk.heartbeatLoop(wctx, cancel, time.Duration(reg.HeartbeatMillis)*time.Millisecond)

	for {
		if wctx.Err() != nil {
			break
		}
		var lease api.LeaseResponse
		status, err := wk.postJSON(wctx, "/farm/v1/lease", api.LeaseRequest{
			WorkerID:   wk.id,
			WaitMillis: wk.opt.LeaseWait.Milliseconds(),
		}, &lease)
		if err != nil {
			if wctx.Err() != nil {
				break
			}
			return true, fmt.Errorf("farm worker %s: lease: %w", wk.id, err)
		}
		if status == http.StatusGone {
			// Reaped or unknown: our leased work was already re-queued, so a
			// fresh identity is the right recovery, not an exit.
			return true, fmt.Errorf("farm worker %s: reaped by coordinator", wk.id)
		}
		if status != http.StatusOK || lease.Job == nil {
			continue // empty long-poll window, or a transient refusal
		}
		err = wk.runJob(wctx, lease.Job, lease.Lease)
		if errors.Is(err, ErrFaultInjected) {
			return true, err
		}
		if err != nil && wctx.Err() == nil {
			// A per-job failure (stale lease after a slow solve, dead run) is
			// not fatal: drop the job and lease fresh work.
			wk.logf("farm worker %s: job %d: %v", wk.id, lease.Job.ID, err)
		}
	}
	if err := context.Cause(wctx); err != nil && ctx.Err() == nil {
		return true, err
	}
	return true, nil
}

// heartbeatLoop beats until the context dies; a refusal (the coordinator
// reaped us) cancels the worker with that cause.
func (wk *worker) heartbeatLoop(ctx context.Context, cancel context.CancelCauseFunc, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, err := wk.postJSON(ctx, "/farm/v1/heartbeat", api.HeartbeatRequest{WorkerID: wk.id}, &api.HeartbeatResponse{})
			if err != nil && ctx.Err() == nil {
				wk.logf("farm worker %s: heartbeat: %v", wk.id, err)
				continue // transient: the TTL, not one miss, decides reaping
			}
			if status == http.StatusGone {
				cancel(fmt.Errorf("farm worker %s: reaped by coordinator", wk.id))
				return
			}
		}
	}
}

// postJSON posts a JSON body and decodes a JSON response, returning the
// HTTP status (error payloads are decoded into the error return).
func (wk *worker) postJSON(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.opt.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := wk.opt.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	var fe farmError
	json.NewDecoder(resp.Body).Decode(&fe) //nolint:errcheck // best-effort detail
	if fe.Error != "" && resp.StatusCode != http.StatusGone {
		return resp.StatusCode, errors.New(fe.Error)
	}
	return resp.StatusCode, nil
}

// materialize returns the worker's local replica of the coordinator's
// circuit, building it on a cache miss. Every construction path is
// deterministic in the spec (api.CircuitSpec.Build), so equal keys mean
// bit-identical instances on every node — the property that lets workers
// own their replicas instead of shipping evaluator state.
func (wk *worker) materialize(spec api.CircuitSpec) (*bench.Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if inst, ok := wk.cache[spec.Key]; ok {
		return inst, nil
	}
	_, inst, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	for len(wk.order) >= wk.opt.CacheSize {
		delete(wk.cache, wk.order[0])
		wk.order = wk.order[1:]
	}
	wk.cache[spec.Key] = inst
	wk.order = append(wk.order, spec.Key)
	return inst, nil
}

// bestEffortWriter forwards writes until the first failure, then swallows
// everything. It lets a job stream live through a pipe whose far end may
// die mid-request: execution completes regardless, and the buffered copy
// carries the replay.
type bestEffortWriter struct {
	w      io.Writer
	broken bool
}

func (b *bestEffortWriter) Write(p []byte) (int, error) {
	if !b.broken {
		if _, err := b.w.Write(p); err != nil {
			b.broken = true
		}
	}
	return len(p), nil
}

// runJob executes one leased job, streaming its NDJSON result lines to
// the coordinator as they are produced. The stream is the job's only
// output channel: a terminal error is reported in-band (it fails the run
// deterministically), and a missing done marker tells the coordinator the
// worker died mid-job.
//
// Every line is also buffered locally; if the live stream dies in transit
// (network cut, 5xx), the full buffer is re-POSTed with backoff. Replay is
// free by construction — the coordinator records cells first-wins and
// duplicates are bitwise equal — so at-least-once delivery costs nothing.
// 409 (stale lease) and 410 (dead run) stay terminal for the job.
func (wk *worker) runJob(ctx context.Context, job *api.Job, lease string) error {
	pr, pw := io.Pipe()
	url := fmt.Sprintf("%s/farm/v1/result?job=%d&lease=%s", wk.opt.Coordinator, job.ID, lease)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	var buf bytes.Buffer
	execErr := make(chan error, 1)
	go func() {
		// The buffer write always succeeds; the pipe is best-effort so a
		// severed stream cannot abort the computation it carries.
		w := io.MultiWriter(&buf, &bestEffortWriter{w: pw})
		err := wk.execute(ctx, job, w)
		if err != nil && !errors.Is(err, ErrFaultInjected) {
			// Deterministic failure: report in-band so the coordinator fails
			// the run instead of re-queueing a job that would fail again.
			json.NewEncoder(w).Encode(api.ResultLine{Error: err.Error()}) //nolint:errcheck // buffer writes cannot fail
		} else if err == nil {
			json.NewEncoder(w).Encode(api.ResultLine{Done: true}) //nolint:errcheck
		}
		pw.Close()
		execErr <- err
	}()

	resp, doErr := wk.opt.Client.Do(req)
	status := 0
	if doErr == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
		resp.Body.Close()
		status = resp.StatusCode
	}
	err = <-execErr
	if errors.Is(err, ErrFaultInjected) {
		return err // die mid-job: the open lease is the reaper's problem
	}

	for attempt := 1; doErr != nil || status >= 500; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if wk.opt.MaxRetries > 0 && attempt > wk.opt.MaxRetries {
			if doErr != nil {
				return fmt.Errorf("farm worker %s: result stream for job %d: %w", wk.id, job.ID, doErr)
			}
			return fmt.Errorf("farm worker %s: result stream for job %d kept failing (%d)", wk.id, job.ID, status)
		}
		d := wk.opt.Backoff.Delay(attempt - 1)
		wk.logf("farm worker %s: result stream for job %d failed (err=%v status=%d); replaying %d bytes in %v", wk.id, job.ID, doErr, status, buf.Len(), d)
		wk.opt.Sleep(ctx, d)
		status, doErr = wk.postResult(ctx, url, buf.Bytes())
	}

	switch status {
	case http.StatusOK:
		return err
	case http.StatusConflict:
		return fmt.Errorf("farm worker %s: lease for job %d went stale (reaped and re-queued)", wk.id, job.ID)
	case http.StatusGone:
		return fmt.Errorf("farm worker %s: run of job %d is dead, dropping results", wk.id, job.ID)
	default:
		return fmt.Errorf("farm worker %s: result stream for job %d refused (%d)", wk.id, job.ID, status)
	}
}

// postResult re-POSTs a fully buffered result stream — the replay half of
// the resumable stream protocol.
func (wk *worker) postResult(ctx context.Context, url string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := wk.opt.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
	return resp.StatusCode, nil
}

// crashAfterCell reports whether a "worker:cell" Crash rule in the fault
// plan kills the worker after the cell just streamed.
func (wk *worker) crashAfterCell() bool {
	inj := wk.opt.Fault.Next("worker:cell")
	return inj != nil && inj.Kind == fault.Crash
}

// execute solves the job's batch with the local runner every in-process
// engine uses (bench.Instance.RunPlan), so equal job inputs yield equal
// bits, writing one result line per cell to w in cell order. A chain
// solves its cells one after another; an independent batch fans them out
// over the cores, each solve serial. The batch runs as a plan
// of its own, re-indexed 0..n−1; each line carries the cell's index in
// the run. Every line counts toward the crash-injection cell counter; a
// tripped crash, like a line that fails to encode, stops the batch and
// drops every later line.
func (wk *worker) execute(ctx context.Context, job *api.Job, w io.Writer) error {
	inst, err := wk.materialize(job.Circuit)
	if err != nil {
		return err
	}
	b := job.Batch
	b.Cells = make([]bench.Cell, len(job.Cells))
	for k, cell := range job.Cells {
		cell.Index = k
		b.Cells[k] = cell
	}
	var s bench.Schedule
	// stop ends the batch early: Observe sets it, one call at a time, and
	// flags it for Cancel, which also fires once the session is cancelled.
	var stop error
	var stopped atomic.Bool
	s.Cancel = func() bool { return stopped.Load() || ctx.Err() != nil }
	enc := json.NewEncoder(w)
	s.Observe = func(k int, sv *bench.Solved) {
		if stopped.Load() {
			return
		}
		if stop = enc.Encode(api.ResultLine{Cell: &api.CellResult{Index: job.Cells[k].Index, Solved: *sv}}); stop == nil {
			wk.cells++
			if wk.crashAfterCell() {
				wk.logf("farm worker %s: fault injected after %d cells, dying mid-job", wk.id, wk.cells)
				stop = ErrFaultInjected
			}
		}
		stopped.Store(stop != nil)
	}
	if _, err := inst.RunPlan(bench.Plan{b}, s); stop == nil {
		return err
	}
	return stop
}

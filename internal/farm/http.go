package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/farm/api"
)

// Handler returns the coordinator's HTTP surface — the four /farm/v1/
// endpoints of the job API. Routes are registered with their full paths,
// so the handler can be mounted directly on the ogwsd mux next to the
// service routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /farm/v1/register", c.handleRegister)
	mux.HandleFunc("POST /farm/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /farm/v1/lease", c.handleLease)
	mux.HandleFunc("POST /farm/v1/result", c.handleResult)
	return mux
}

// farmError is the uniform error payload of every non-2xx farm response.
type farmError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // receiver gone: nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, farmError{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register request: %v", err)
		return
	}
	resp, err := c.register(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat request: %v", err)
		return
	}
	if err := c.beat(req.WorkerID); err != nil {
		// 410: the worker was reaped (or never registered) — its cue to
		// exit, since any leased work has already been re-queued.
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.HeartbeatResponse{OK: true})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req api.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	job, token, err := c.leaseJob(r.Context(), req.WorkerID, time.Duration(req.WaitMillis)*time.Millisecond)
	if err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.LeaseResponse{Job: job, Lease: token})
}

// lookupLease resolves a result stream's lease token, distinguishing the
// two terminal refusals: 409 for a stale token (the job was reaped and
// re-queued — the holder should drop the job and lease fresh work) and 410
// for a dead run (failed or cancelled — the work is worthless, stop).
func (c *Coordinator) lookupLease(token string, jobID int64) (*job, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.leases[token]
	if j == nil || j.msg.ID != jobID {
		return nil, http.StatusConflict, errors.New("farm: stale or unknown lease")
	}
	if j.run.dead {
		return nil, http.StatusGone, fmt.Errorf("farm: run %d is no longer accepting results", j.run.id)
	}
	return j, 0, nil
}

// handleResult consumes one NDJSON result stream for a leased job. The
// lease is validated per line, not once: a reap can land mid-stream, and
// from that point the stream's lines belong to a lease that no longer owns
// the job. Lines already recorded before the reap stay recorded — the
// re-run reproduces them bitwise, so the grid is unaffected.
//
// A stream that ends without a done or error line (worker death mid-job)
// leaves the job leased; the reaper re-queues it when the worker's TTL
// lapses.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	token := q.Get("lease")
	var jobID int64
	if _, err := fmt.Sscanf(q.Get("job"), "%d", &jobID); err != nil || token == "" {
		writeError(w, http.StatusBadRequest, "result: job and lease query parameters are required")
		return
	}
	dec := json.NewDecoder(r.Body)
	for {
		var line api.ResultLine
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				// Mid-job EOF: the worker died with the lease open. Keep the
				// job leased — the reaper owns its fate.
				writeError(w, http.StatusBadRequest, "result: stream ended without a done marker; job stays leased until reap")
			} else {
				writeError(w, http.StatusBadRequest, "result: bad stream line: %v", err)
			}
			return
		}
		j, code, err := c.lookupLease(token, jobID)
		if err != nil {
			writeError(w, code, "%v", err)
			return
		}
		switch {
		case line.Cell != nil:
			cell, err := c.recordCell(j, line.Cell)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			if cell != nil {
				j.run.observe(func() { j.run.onCell(cell) })
			}
		case line.Solve != nil:
			if err := c.recordSolve(j, line.Solve); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		case line.Sample != nil:
			s, err := c.recordSample(j, line.Sample)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			if s != nil {
				j.run.observe(func() { j.run.onSample(s) })
			}
		case line.Error != "":
			// A worker-reported error is deterministic — a re-run would fail
			// identically — so it fails the whole run, not just the job.
			c.mu.Lock()
			c.failLocked(j.run, fmt.Errorf("farm: job %d failed on worker %s: %s", j.msg.ID, j.worker, line.Error))
			c.releaseLocked(j, false)
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, api.ResultResponse{OK: true})
			return
		case line.Done:
			c.mu.Lock()
			c.releaseLocked(j, true)
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, api.ResultResponse{OK: true})
			return
		default:
			writeError(w, http.StatusBadRequest, "result: empty stream line")
			return
		}
	}
}

// releaseLocked returns a job's lease and marks it done; completed counts
// as finished work for the holding worker. Caller holds c.mu.
func (c *Coordinator) releaseLocked(j *job, completed bool) {
	delete(c.leases, j.lease)
	if completed {
		c.jobsCompleted++
		if w := c.workers[j.worker]; w != nil {
			w.jobsCompleted++
		}
	}
	j.state = jobDone
	j.worker, j.lease = "", ""
}

package farm

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/sweep"
)

// post drives the coordinator's handler with a raw body.
func post(c *Coordinator, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, req)
	return rr
}

// TestHandlerRejectsMalformedRequests pins the HTTP surface's error
// statuses: malformed JSON is 400 everywhere, an unknown worker is 410 on
// heartbeat and lease (its cue to exit), and a result stream must name
// its job and lease.
func TestHandlerRejectsMalformedRequests(t *testing.T) {
	c := testCoordinator(newTestClock())
	cases := []struct {
		name, path, body string
		wantCode         int
	}{
		{"register bad json", "/farm/v1/register", "{", http.StatusBadRequest},
		{"heartbeat bad json", "/farm/v1/heartbeat", "{", http.StatusBadRequest},
		{"heartbeat unknown worker", "/farm/v1/heartbeat", `{"worker_id":"w99"}`, http.StatusGone},
		{"lease bad json", "/farm/v1/lease", "{", http.StatusBadRequest},
		{"lease unknown worker", "/farm/v1/lease", `{"worker_id":"w99"}`, http.StatusGone},
		{"result missing query", "/farm/v1/result", "", http.StatusBadRequest},
		{"result garbage stream", "/farm/v1/result?job=1&lease=L1", "{", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rr := post(c, tc.path, tc.body); rr.Code != tc.wantCode {
				t.Errorf("POST %s: %d %s, want %d", tc.path, rr.Code, rr.Body, tc.wantCode)
			}
		})
	}
}

// TestResultRejectsEmptyLine: a stream line with no cell, error, or done
// marker is a protocol violation, rejected with the lease intact.
func TestResultRejectsEmptyLine(t *testing.T) {
	clock := newTestClock()
	c := testCoordinator(clock)
	w1 := register(t, c, "w1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := startSweep(t, ctx, c, sweep.Options{
		DelayScale: []float64{1, 1.1}, NoiseScale: []float64{1},
		Cold: true, MaxIterations: 2,
	})
	job, token := lease(t, c, w1)
	if rr := postResult(c, job.ID, token, api.ResultLine{}); rr.Code != http.StatusBadRequest {
		t.Fatalf("empty line: %d %s, want 400", rr.Code, rr.Body)
	}
	if got := c.StatsSnapshot(); got.JobsLeased != 1 {
		t.Fatalf("empty line released the lease: %+v", got)
	}
	cancel()
	<-errCh
}

// TestLiveWorkers tracks registration and reaping.
func TestLiveWorkers(t *testing.T) {
	clock := newTestClock()
	c := testCoordinator(clock)
	if c.LiveWorkers() != 0 {
		t.Fatalf("fresh coordinator has %d live workers", c.LiveWorkers())
	}
	register(t, c, "w1")
	register(t, c, "w2")
	if c.LiveWorkers() != 2 {
		t.Fatalf("live workers = %d, want 2", c.LiveWorkers())
	}
	clock.Advance(4 * time.Minute)
	c.reap()
	if c.LiveWorkers() != 0 {
		t.Fatalf("live workers after reap = %d, want 0", c.LiveWorkers())
	}
}

package fault

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Transport wraps an http.RoundTripper with a fault plan: the chaos
// layer between a farm worker and its coordinator. Each request reports
// the event "http:<path>" (query stripped), so rules can target one
// endpoint ("http:/farm/v1/lease") or the whole transport ("http:").
//
// Injections:
//
//   - Drop: the round trip fails with a connection-refused-style error
//     before anything reaches the wire.
//   - Delay: the request is stalled by the rule's Delay (via the
//     injectable sleep), then proceeds untouched.
//   - HTTP500: a synthetic 500 response is returned; the real request is
//     never sent.
//   - Cut: the request goes out, but the response body is severed after
//     CutBytes bytes — the mid-stream cut the worker's resumable result
//     streams must absorb. For requests with a streaming body (result
//     uploads), the request body itself is severed instead, cutting the
//     upload mid-stream.
type Transport struct {
	plan *Plan
	base http.RoundTripper
	// sleep is injectable so tests can run delay rules on a fake clock.
	sleep func(time.Duration)
}

// NewTransport wraps base (nil: http.DefaultTransport) with the plan.
// With a nil plan the base transport is returned unwrapped.
func NewTransport(plan *Plan, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if plan == nil {
		return base
	}
	return &Transport{plan: plan, base: base, sleep: time.Sleep}
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	inj := t.plan.Next("http:" + req.URL.Path)
	if inj == nil {
		return t.base.RoundTrip(req)
	}
	switch inj.Kind {
	case Drop:
		// Fail like a dead coordinator: nothing reached the wire. Close
		// the request body as RoundTrip contracts require.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &connError{inj.Err}
	case Delay:
		t.sleep(inj.Delay)
		return t.base.RoundTrip(req)
	case HTTP500:
		if req.Body != nil {
			// Drain so a streaming caller unblocks, mimicking a server that
			// read the request before erroring.
			io.Copy(io.Discard, req.Body) //nolint:errcheck // best-effort drain
			req.Body.Close()
		}
		return &http.Response{
			Status:     "500 Internal Server Error (injected)",
			StatusCode: http.StatusInternalServerError,
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Body:    io.NopCloser(strings.NewReader(`{"error":"fault: injected 500"}`)),
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Request: req,
		}, nil
	case Cut:
		if req.Body != nil && req.ContentLength <= 0 {
			// Streaming upload: sever the request body mid-stream, the way
			// a dropped TCP connection would.
			req.Body = &cutReader{rc: req.Body, remaining: inj.CutBytes, err: inj.Err}
			resp, err := t.base.RoundTrip(req)
			if err != nil {
				return nil, &connError{fmt.Errorf("%w (request stream cut)", inj.Err)}
			}
			return resp, nil
		}
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &cutReader{rc: resp.Body, remaining: inj.CutBytes, err: inj.Err}
		return resp, nil
	default:
		return t.base.RoundTrip(req)
	}
}

// connError marks injected transport failures as network-shaped errors.
type connError struct{ err error }

func (e *connError) Error() string   { return e.err.Error() + " (connection refused)" }
func (e *connError) Unwrap() error   { return e.err }
func (e *connError) Timeout() bool   { return false }
func (e *connError) Temporary() bool { return true }

// cutReader yields up to remaining bytes, then fails with the injected
// error — a severed stream.
type cutReader struct {
	rc        io.ReadCloser
	remaining int64
	err       error
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, c.err
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= int64(n)
	if err == nil && c.remaining <= 0 {
		err = c.err
	}
	return n, err
}

func (c *cutReader) Close() error { return c.rc.Close() }

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// Plumbing of the HTTP workload: the client, the op form, and the traced
// run's wrappers at the service and store seams.

const (
	// hdrOp carries "<op index>.<request sequence>" on traced requests, and
	// hdrSpan the op's span ID, so the handler span can name its parent.
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// client is the load generator's HTTP client: one connection pool of at
// most conns loopback connections, never proxied.
type client struct {
	base string
	hc   *http.Client
}

func newTransport(conns int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	if conns > 0 {
		tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost = conns, conns
	}
	return tr
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: newTransport(conns)}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// loopback serves a handler on a fresh 127.0.0.1 port.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the listener and every connection and waits for Serve to
// return.
func (s *loopback) close() {
	s.srv.Close()
	<-s.done
}

// httpReq is one request of an op; most ops are one request, a save_as /
// warm_from chain is two sent back to back.
type httpReq struct {
	method, path string
	body         []byte
}

func postReq(path string, v any) httpReq {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types are fixed structs of finite numbers
	}
	return httpReq{http.MethodPost, path, b}
}

// send performs one request and returns the body of a 2xx response.
func (c *client) send(rq httpReq, hdr http.Header) ([]byte, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, c.base+rq.path, body)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", rq.method, rq.path, err)
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(b))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, fmt.Errorf("%s %s: status %d: %s", rq.method, rq.path, resp.StatusCode, msg)
	}
	return b, nil
}

func (c *client) getJSON(path string, out any) error {
	b, err := c.send(httpReq{http.MethodGet, path, nil}, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

func (c *client) postJSON(path string, in, out any) error {
	b, err := c.send(postReq(path, in), nil)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// Request bodies, as the service's strict decoder accepts them.
type solveBody struct {
	Key      string  `json:"key"`
	A0       float64 `json:"a0,omitempty"`
	SaveAs   string  `json:"save_as,omitempty"`
	WarmFrom string  `json:"warm_from,omitempty"`
	NoDedup  bool    `json:"no_dedup,omitempty"`
}

type sweepBody struct {
	Key        string    `json:"key"`
	DelayScale []float64 `json:"delay_scale"`
	NoiseScale []float64 `json:"noise_scale"`
	Cold       bool      `json:"cold,omitempty"`
}

type mcBody struct {
	Key     string           `json:"key"`
	Samples int              `json:"samples"`
	Seed    uint64           `json:"seed"`
	Sigmas  variation.Sigmas `json:"sigmas"`
	NoDedup bool             `json:"no_dedup,omitempty"`
}

// registered is a circuit the service holds: its cache key and derived
// bounds, as POST /circuits returned them.
type registered struct {
	Key    string       `json:"key"`
	Bounds bench.Bounds `json:"bounds"`
}

// register adds the circuits through POST /circuits (the server builds
// each instance) and records the time as bench.build_s.
func register(r *runner, c *client, names []string) (map[string]registered, error) {
	out := map[string]registered{}
	start := time.Now()
	for _, name := range names {
		var reg registered
		if err := c.postJSON("/circuits", map[string]string{"synthetic": name}, &reg); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		out[name] = reg
	}
	r.buildSec = time.Since(start).Seconds()
	return out, nil
}

// httpOp is one op against the service: its requests, how to read the
// last response's result (nil: any valid JSON will do), and the library
// computation it must equal bit for bit.
type httpOp struct {
	kind   string
	units  int
	reqs   []httpReq
	decode func(body []byte) (*outcome, error)
	expect func() (*outcome, error)
}

func decodeSolve(key string) func([]byte) (*outcome, error) {
	return func(b []byte) (*outcome, error) {
		var resp struct {
			Result *core.Result `json:"result"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || resp.Result == nil {
			return nil, fmt.Errorf("solve response without a result (%v)", err)
		}
		return solveOutcome(key, resp.Result)
	}
}

func decodeSweep(circuit string, a axes, cold bool) func([]byte) (*outcome, error) {
	return func(b []byte) (*outcome, error) {
		var resp struct {
			Result *sweep.Result `json:"result"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || resp.Result == nil {
			return nil, fmt.Errorf("sweep response without a result (%v)", err)
		}
		return sweepOutcome(circuit, a, cold, resp.Result)
	}
}

func decodeMC(circuit string, seed uint64) func([]byte) (*outcome, error) {
	return func(b []byte) (*outcome, error) {
		var resp struct {
			Result *variation.MCResult `json:"result"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || resp.Result == nil {
			return nil, fmt.Errorf("montecarlo response without a result (%v)", err)
		}
		return mcOutcome(circuit, seed, resp.Result)
	}
}

// verifyBody is the deferred check of a sampled op: the response must be
// bitwise the library's result for the same inputs, and pass the
// reference quality check.
func verifyBody(r *runner, op *httpOp, body []byte) func() error {
	return func() error {
		if op.decode == nil {
			if !json.Valid(body) {
				return fmt.Errorf("%s: response is not JSON", op.kind)
			}
			return nil
		}
		got, err := op.decode(body)
		if err != nil {
			return err
		}
		want, err := op.expect()
		if err != nil {
			return fmt.Errorf("library reference for %s: %w", op.kind, err)
		}
		if !bytes.Equal(got.canon, want.canon) {
			return fmt.Errorf("%s: response differs from the in-process library result", op.kind)
		}
		return r.checkItems(got.items)
	}
}

// httpTask is the closed-loop task of one op. Every fourth round's ops
// (the first included) keep their response for the check after the window,
// so every kind is verified and the kept responses hold the same memory in
// every run.
func httpTask(r *runner, cl *client, ht *httpTrace, op *httpOp, round int) task {
	keep := r.cfg.verifyAll || round%4 == 0
	return task{kind: op.kind, units: op.units, run: func(oc opCtx) (func() error, error) {
		var h *httpTrace
		if oc.traced {
			h = ht
		}
		body, err := cl.exec(op, oc.idx, oc.span, h)
		if err != nil || !keep {
			return nil, err
		}
		return verifyBody(r, op, body), nil
	}}
}

// exec sends an op's requests; traced requests carry the op and span IDs
// for the middleware and have their response fields noted.
func (c *client) exec(op *httpOp, idx, span int, ht *httpTrace) ([]byte, error) {
	var body []byte
	for seq, rq := range op.reqs {
		var hdr http.Header
		if ht != nil {
			hdr = http.Header{}
			hdr.Set(hdrOp, fmt.Sprintf("%d.%d", idx, seq))
			hdr.Set(hdrSpan, strconv.Itoa(span))
		}
		b, err := c.send(rq, hdr)
		if err != nil {
			return nil, err
		}
		if ht != nil {
			ht.noteResponse(idx, seq, rq.path, b)
		}
		body = b
	}
	return body, nil
}

// ---- traced-run wrappers ----

// httpTrace joins what the middleware saw of each traced request (handler
// time, bytes) with what the client saw (its latency, the response's
// solve_sec and dedup flag).
type httpTrace struct {
	mu       sync.Mutex
	handlers map[string]handlerRec
	resps    map[string]respRec
}

type handlerRec struct {
	op    int
	dur   time.Duration
	bytes int
}

type respRec struct {
	op       int
	endpoint string
	solveSec float64
}

func newHTTPTrace() *httpTrace {
	return &httpTrace{handlers: map[string]handlerRec{}, resps: map[string]respRec{}}
}

// middleware times Server.ServeHTTP for requests that carry the op header.
func (ht *httpTrace) middleware(r *runner, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(hdrOp)
		if id == "" {
			next.ServeHTTP(w, req)
			return
		}
		op, _ := strconv.Atoi(strings.SplitN(id, ".", 2)[0])
		parent, _ := strconv.Atoi(req.Header.Get(hdrSpan))
		cw := &countingWriter{ResponseWriter: w}
		t0 := r.tr.now()
		next.ServeHTTP(cw, req)
		t1 := r.tr.now()
		r.tr.record(0, "service.handler", parent, op, t0, t1)
		ht.mu.Lock()
		ht.handlers[id] = handlerRec{op: op, dur: t1 - t0, bytes: cw.n}
		ht.mu.Unlock()
	})
}

func (ht *httpTrace) noteResponse(op, seq int, path string, body []byte) {
	var resp struct {
		SolveSec float64 `json:"solve_sec"`
		Dedup    bool    `json:"dedup"`
	}
	_ = json.Unmarshal(body, &resp) // GET /stats and /results carry neither field
	endpoint := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(endpoint, '?'); i >= 0 {
		endpoint = endpoint[:i]
	}
	if endpoint == "solve" && resp.Dedup {
		endpoint = "dedup"
	}
	ht.mu.Lock()
	ht.resps[fmt.Sprintf("%d.%d", op, seq)] = respRec{op: op, endpoint: endpoint, solveSec: resp.SolveSec}
	ht.mu.Unlock()
}

// fold turns the joined records into the service.* samples.
func (ht *httpTrace) fold(r *runner) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	handlerByOp := map[int]time.Duration{}
	for _, id := range sortedKeys(ht.handlers) {
		h := ht.handlers[id]
		handlerByOp[h.op] += h.dur
		r.acc.sample("svc.handler_ms", ms(h.dur))
		r.acc.sample("svc.response_bytes", float64(h.bytes))
		rs, ok := ht.resps[id]
		if !ok {
			continue
		}
		r.acc.sample("svc.handler_ms."+rs.endpoint, ms(h.dur))
		switch rs.endpoint {
		case "solve", "sweep", "montecarlo":
			r.acc.sample("svc.overhead_ms", ms(h.dur)-rs.solveSec*1e3)
		}
	}
	for op, d := range handlerByOp {
		if op < len(r.ops) {
			r.acc.sample("svc.client_wait_ms", ms(r.ops[op].latency-d))
		}
	}
}

// countingWriter counts response bytes; Flush passes through so streamed
// responses still stream.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedFS times the store's writes and fsyncs (store.Options.FS) while the
// traced window runs.
type timedFS struct {
	fault.FS
	r *runner
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{fl, f.r}, nil
}

func (f timedFS) CreateTemp(dir, pattern string) (fault.File, error) {
	fl, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{fl, f.r}, nil
}

type timedFile struct {
	fault.File
	r *runner
}

func (t *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.File.Write(p)
	if t.r.tracing.Load() {
		t.r.acc.add("store.busy_ns", float64(time.Since(start)))
		t.r.acc.add("store.write_bytes", float64(n))
	}
	return n, err
}

func (t *timedFile) Sync() error {
	t0, start := t.r.tr.now(), time.Now()
	err := t.File.Sync()
	if t.r.tracing.Load() {
		d := time.Since(start)
		t.r.acc.add("store.busy_ns", float64(d))
		t.r.acc.sample("store.sync_ms", ms(d))
		t.r.tr.record(0, "store.sync", 0, 0, t0, t.r.tr.now())
	}
	return err
}

// statsDelta sets the per-layer metrics GET /stats answers for the window:
// dedup effectiveness, sheds, and the evaluator work of the solves the
// service ran.
func statsDelta(r *runner, before, after *service.Stats, solveRequests int) {
	a := r.acc
	solves := float64(after.Solves - before.Solves)
	a.set("service.dedup_hit_ratio", ratio(float64(after.DedupHits-before.DedupHits), float64(solveRequests)))
	a.set("service.overload_sheds", float64(after.OverloadSheds-before.OverloadSheds))
	ev := after.Eval.Sub(before.Eval)
	a.set("rc.node_visits_per_op", ratio(float64(after.NodeVisits-before.NodeVisits), solves))
	a.set("rc.full_pass_share", ratio(float64(ev.FullRecomputes), float64(ev.FullRecomputes+ev.IncRecomputes)))
	a.set("rc.cutover_share", ratio(float64(ev.CutoverRecomputes), float64(ev.FullRecomputes+ev.IncRecomputes)))
	a.set("core.hyst_trips_per_op", ratio(float64(after.HysteresisTrips-before.HysteresisTrips), solves))
}

func (c *client) stats() (*service.Stats, error) {
	var st service.Stats
	if err := c.getJSON("/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// c17Netlist returns the committed c17 .bench text — the cheapest real
// circuit the service can register.
func c17Netlist(t testing.TB) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "c17.bench"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// do sends one JSON request to the handler and returns the recorded
// response.
func do(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

func decodeAs[T any](t testing.TB, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

// registerC17 registers the c17 netlist with the given seed and returns
// the cache key.
func registerC17(t testing.TB, s *Server, seed int64) registerResponse {
	t.Helper()
	body, err := json.Marshal(registerRequest{Netlist: c17Netlist(t), Name: "c17", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/circuits", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("register c17: %d %s", w.Code, w.Body.String())
	}
	return decodeAs[registerResponse](t, w)
}

func TestRegisterErrors(t *testing.T) {
	s := New(Options{})
	cases := []struct {
		name, body string
		code       int
		want       string
	}{
		{"invalid json", `{`, http.StatusBadRequest, "bad register request"},
		{"unknown field", `{"netlst":"x"}`, http.StatusBadRequest, "unknown field"},
		{"neither source", `{}`, http.StatusBadRequest, "exactly one of"},
		{"both sources", `{"synthetic":"c432","netlist":"INPUT(a)"}`, http.StatusBadRequest, "exactly one of"},
		{"unknown synthetic", `{"synthetic":"c9999"}`, http.StatusBadRequest, "unknown synthetic"},
		{"bad netlist", `{"netlist":"G1 = FOO(G2)"}`, http.StatusBadRequest, "register"},
		{"negative scale", `{"synthetic":"c432","wire_length_scale":-2}`, http.StatusBadRequest, "wire_length_scale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, "POST", "/circuits", c.body)
			if w.Code != c.code {
				t.Fatalf("status %d, want %d (%s)", w.Code, c.code, w.Body.String())
			}
			if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, c.want) {
				t.Errorf("error %q does not mention %q", e.Error, c.want)
			}
		})
	}
}

func TestRegisterCachesByContent(t *testing.T) {
	s := New(Options{})
	first := registerC17(t, s, 17)
	if first.Cached {
		t.Error("first registration reported a cache hit")
	}
	if first.Circuit != "c17" || first.Gates == 0 || first.Wires == 0 {
		t.Errorf("bad register response: %+v", first)
	}
	if first.Bounds.A0 <= 0 {
		t.Errorf("derived bounds missing: %+v", first.Bounds)
	}
	again := registerC17(t, s, 17)
	if !again.Cached || again.Key != first.Key {
		t.Errorf("identical upload did not hit the cache: %+v vs %+v", again, first)
	}
	other := registerC17(t, s, 18)
	if other.Cached || other.Key == first.Key {
		t.Error("different seed reused the cached instance")
	}

	list := decodeAs[[]circuitInfo](t, do(t, s, "GET", "/circuits", ""))
	if len(list) != 2 {
		t.Fatalf("listed %d circuits, want 2", len(list))
	}
}

func TestSolveErrors(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	cases := []struct {
		name, body string
		code       int
		want       string
	}{
		{"invalid json", `{`, http.StatusBadRequest, "bad solve request"},
		{"nan bound", `{"key":"x","a0":NaN}`, http.StatusBadRequest, "bad solve request"},
		{"unknown key", `{"key":"nope"}`, http.StatusNotFound, "no cached circuit"},
		{"warm and inline seed", fmt.Sprintf(`{"key":%q,"warm_from":"a","seed_sizes":[1]}`, key),
			http.StatusBadRequest, "mutually exclusive"},
		{"unknown warm_from", fmt.Sprintf(`{"key":%q,"warm_from":"missing"}`, key),
			http.StatusNotFound, "no saved result"},
		{"negative a0", fmt.Sprintf(`{"key":%q,"a0":-5}`, key),
			http.StatusUnprocessableEntity, "A0 must be positive"},
		{"infeasible noise", fmt.Sprintf(`{"key":%q,"noise":1e-12}`, key),
			http.StatusUnprocessableEntity, "below the constant coupling offset"},
		{"bad seed length", fmt.Sprintf(`{"key":%q,"seed_sizes":[1.5]}`, key),
			http.StatusUnprocessableEntity, "solve"},
		{"poisoned dual", fmt.Sprintf(`{"key":%q,"dual":{"edge":[[-1]],"beta":0,"gamma":0}}`, key),
			http.StatusBadRequest, "non-negative"},
		// The retired full-pass option is now an unknown field.
		{"retired full", fmt.Sprintf(`{"key":%q,"full":true}`, key),
			http.StatusBadRequest, "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, "POST", "/solve", c.body)
			if w.Code != c.code {
				t.Fatalf("status %d, want %d (%s)", w.Code, c.code, w.Body.String())
			}
			if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, c.want) {
				t.Errorf("error %q does not mention %q", e.Error, c.want)
			}
		})
	}
}

// TestFailedBuildNotCountedAsHit registers the same broken netlist
// concurrently: whether the requests join one failed build or each run
// their own, nothing was cached, so the hit counter must stay zero.
func TestFailedBuildNotCountedAsHit(t *testing.T) {
	s := New(Options{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(t, s, "POST", "/circuits", `{"netlist":"G1 = FOO(G2)"}`)
			if w.Code != http.StatusBadRequest {
				t.Errorf("broken netlist: status %d, want 400", w.Code)
			}
		}()
	}
	wg.Wait()
	st := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if st.CacheHits != 0 || st.Instances != 0 {
		t.Errorf("failed builds counted: hits %d instances %d, want 0 and 0", st.CacheHits, st.Instances)
	}
}

func TestCacheEviction(t *testing.T) {
	s := New(Options{CacheSize: 1})
	key17 := registerC17(t, s, 17).Key
	key18 := registerC17(t, s, 18).Key // evicts seed 17

	w := do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q}`, key17))
	if w.Code != http.StatusNotFound {
		t.Fatalf("solve on evicted key: status %d, want 404", w.Code)
	}
	if w = do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q,"max_iterations":4}`, key18)); w.Code != http.StatusOK {
		t.Fatalf("solve on cached key: %d %s", w.Code, w.Body.String())
	}
	st := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if st.Evictions != 1 || st.Instances != 1 {
		t.Errorf("stats: evictions %d instances %d, want 1 and 1", st.Evictions, st.Instances)
	}
	// Re-registering the evicted circuit rebuilds it under the same key.
	if again := registerC17(t, s, 17); again.Cached || again.Key != key17 {
		t.Errorf("re-registration after eviction: %+v", again)
	}
}

// TestEvictionDropsWatchLog: a circuit's watch log goes with its cache
// entry. An SSE watcher parked on a circuit is released when the circuit
// is evicted, and forty c17 seeds solved in turn on a one-entry cache
// leave one watch log, not forty.
func TestEvictionDropsWatchLog(t *testing.T) {
	s := New(Options{CacheSize: 1})
	solve := func(seed int64) string {
		key := registerC17(t, s, seed).Key
		if w := do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q,"max_iterations":2}`, key)); w.Code != http.StatusOK {
			t.Fatalf("solve seed %d: %d %s", seed, w.Code, w.Body.String())
		}
		return key
	}
	key := solve(1)

	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/watch?key="+key+"&sse=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && !strings.Contains(sc.Text(), "solve_done") {
	}
	// The watcher has the whole solve and parks; evicting its circuit
	// must end the stream.
	solve(2)
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("the SSE stream of an evicted circuit did not end: %v", err)
	}

	for seed := int64(3); seed <= 40; seed++ {
		solve(seed)
	}
	if n := s.hub.Len(); n != 1 {
		t.Errorf("hub holds %d watch logs after 40 solves on a one-entry cache, want 1", n)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	if w := do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q,"max_iterations":4}`, key)); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
	body := fmt.Sprintf(`{"key":%q,"delay_scale":[1,1.05],"noise_scale":[1,1.2],"max_iterations":3}`, key)
	if w := do(t, s, "POST", "/sweep", body); w.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", w.Code, w.Body.String())
	}
	st := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if st.Solves != 1 || st.Sweeps != 1 || st.SweepCells != 4 {
		t.Errorf("stats: solves %d sweeps %d cells %d, want 1/1/4", st.Solves, st.Sweeps, st.SweepCells)
	}
	if st.NodeVisits == 0 || st.Eval.FullRecomputes == 0 {
		t.Errorf("evaluator work not accounted: %+v", st.Eval)
	}
	if st.SweepLRSSweeps == 0 {
		t.Error("sweep LRS work not accounted")
	}
	if st.SolveSec <= 0 || st.SweepCellsPerSec <= 0 {
		t.Errorf("throughput not accounted: %+v", st)
	}
	if st.CacheMiss != 1 || st.CacheHits != 0 {
		t.Errorf("cache counters: hits %d misses %d, want 0 and 1", st.CacheHits, st.CacheMiss)
	}
}

// TestOversizedBodyGets413 pins the request-size limit to its proper
// status: a body one byte over maxRequestBytes should teach the client the
// cap, not send it debugging its JSON.
func TestOversizedBodyGets413(t *testing.T) {
	s := New(Options{})
	const head, tail = `{"netlist":"`, `"}`
	body := head + strings.Repeat("x", maxRequestBytes+1-len(head)-len(tail)) + tail
	w := do(t, s, "POST", "/circuits", body)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", w.Code, w.Body.String())
	}
}

func TestHealthz(t *testing.T) {
	s := New(Options{})
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK || !decodeAs[map[string]bool](t, w)["ok"] {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
}

func TestResultsExport(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	if w := do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q,"max_iterations":4,"save_as":"base"}`, key)); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
	cases := []struct {
		name, path string
		code       int
	}{
		{"missing params", "/results", http.StatusBadRequest},
		{"unknown key", "/results?key=nope&name=base", http.StatusNotFound},
		{"unknown name", "/results?key=" + key + "&name=nope", http.StatusNotFound},
		{"found", "/results?key=" + key + "&name=base", http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, "GET", c.path, "")
			if w.Code != c.code {
				t.Fatalf("status %d, want %d (%s)", w.Code, c.code, w.Body.String())
			}
		})
	}
	res := decodeAs[resultResponse](t, do(t, s, "GET", "/results?key="+key+"&name=base", ""))
	if res.Result == nil || res.Dual == nil || res.Name != "base" {
		t.Fatalf("export missing payload: %+v", res)
	}
}

// saveNamed runs a two-iteration solve on circuit key and saves its
// result under name.
func saveNamed(t *testing.T, s *Server, key, name string) {
	t.Helper()
	body := fmt.Sprintf(`{"key":%q,"max_iterations":2,"save_as":%q}`, key, name)
	if w := do(t, s, "POST", "/solve", body); w.Code != http.StatusOK {
		t.Fatalf("solve %s: %d %s", name, w.Code, w.Body.String())
	}
}

// savedCode is the GET /results status for name on circuit key.
func savedCode(t *testing.T, s *Server, key, name string) int {
	t.Helper()
	return do(t, s, "GET", "/results?key="+key+"&name="+name, "").Code
}

// TestSavedResultEviction pins the per-instance result budget: the oldest
// name falls out once maxSavedResults is exceeded.
func TestSavedResultEviction(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	for i := 0; i <= maxSavedResults; i++ {
		saveNamed(t, s, key, fmt.Sprint("r", i))
	}
	if code := savedCode(t, s, key, "r0"); code != http.StatusNotFound {
		t.Errorf("oldest result still present: %d", code)
	}
	for i := 1; i <= maxSavedResults; i++ {
		if code := savedCode(t, s, key, fmt.Sprint("r", i)); code != http.StatusOK {
			t.Errorf("result r%d missing: %d", i, code)
		}
	}
}

// TestSavedResultOverwriteRefreshesEvictionSlot is the regression test for
// an overwritten name keeping its original insertion-order slot: a hot,
// repeatedly-refreshed warm-start seed was evicted before younger names
// saved once. Re-saving must move the name to the back of the eviction
// queue.
func TestSavedResultOverwriteRefreshesEvictionSlot(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	saveNamed(t, s, key, "a")
	for i := 1; i < maxSavedResults; i++ {
		saveNamed(t, s, key, fmt.Sprint("b", i))
	}
	saveNamed(t, s, key, "a") // refresh: a is now the most recently saved name
	saveNamed(t, s, key, "c") // over budget → evicts b1 (the stalest), never the refreshed a
	if code := savedCode(t, s, key, "b1"); code != http.StatusNotFound {
		t.Errorf("stale result b1 survived the overwrite-refresh: %d", code)
	}
	for _, name := range []string{"a", "b2", "c"} {
		if code := savedCode(t, s, key, name); code != http.StatusOK {
			t.Errorf("result %s missing: %d", name, code)
		}
	}
	// An overwrite at the budget boundary must not evict anything: the
	// name count is unchanged.
	saveNamed(t, s, key, "c")
	for _, name := range []string{"a", "b2", "c"} {
		if code := savedCode(t, s, key, name); code != http.StatusOK {
			t.Errorf("after boundary overwrite, result %s missing: %d", name, code)
		}
	}
}

// TestNDJSONWriterMarshalFailureInBand is the regression test for the
// streamed-sweep write path silently dropping a line whose payload failed
// to marshal (a non-finite float, say): the stream lost cells with no
// in-band signal. Every writeLine call must now produce exactly one
// output line — unmarshalable payloads become {"error": ...} lines — so
// the rows×cols+summary line-count contract holds unconditionally.
func TestNDJSONWriterMarshalFailureInBand(t *testing.T) {
	rr := httptest.NewRecorder()
	nw := &ndjsonWriter{w: rr}
	if nw.started() {
		t.Fatal("started before any line")
	}
	nw.writeLine(map[string]float64{"ok": 1})
	nw.writeLine(map[string]float64{"bad": math.NaN()}) // json.Marshal fails
	nw.writeLine(sweepSummary{Done: true})
	if !nw.started() {
		t.Fatal("started() false after writes")
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rr.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines for 3 writes: %q", len(lines), rr.Body.String())
	}
	var e errorResponse
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("error line is not JSON: %q (%v)", lines[1], err)
	}
	if !strings.Contains(e.Error, "marshal") {
		t.Errorf("error line %q does not name the marshal failure", e.Error)
	}
	var sum sweepSummary
	if err := json.Unmarshal([]byte(lines[2]), &sum); err != nil || !sum.Done {
		t.Fatalf("summary line corrupted by the error line: %q (%v)", lines[2], err)
	}
}

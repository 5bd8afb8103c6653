package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// rawSolveResponse captures a /solve response with the result left as raw
// bytes, for byte-for-byte identity assertions.
type rawSolveResponse struct {
	Dedup  bool            `json:"dedup"`
	Result json.RawMessage `json:"result"`
}

func solveRaw(t testing.TB, s *Server, body string) rawSolveResponse {
	t.Helper()
	w := do(t, s, "POST", "/solve", body)
	if w.Code != http.StatusOK {
		t.Fatalf("solve %s: %d %s", body, w.Code, w.Body.String())
	}
	return decodeAs[rawSolveResponse](t, w)
}

// TestRestartBitIdentityOracle is the persistence determinism oracle: a
// warm-start chain replayed against a restarted server — whose save_as
// results came back from the durable store, not from memory — produces
// byte-for-byte the same bytes as the chain run on a server that never
// restarted. no_dedup forces the post-restart solve to actually run, so
// the assertion covers the solver-from-reloaded-state path, not just the
// stored-bytes echo.
func TestRestartBitIdentityOracle(t *testing.T) {
	base := `{"key":%q,"max_iterations":4,"save_as":"base"}`
	refine := `{"key":%q,"max_iterations":4,"warm_from":"base","save_as":"refined"%s}`

	// Reference chain: one storeless server, no restart.
	ref := New(Options{})
	refKey := registerC17(t, ref, 17).Key
	solveRaw(t, ref, fmt.Sprintf(base, refKey))
	want := solveRaw(t, ref, fmt.Sprintf(refine, refKey, ""))

	// Durable chain: solve+save, then simulate a crash-restart by opening
	// a second store on the same directory and building a fresh server.
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Store: st1})
	key := registerC17(t, s1, 17).Key
	if key != refKey {
		t.Fatalf("cache keys diverged: %s vs %s", key, refKey)
	}
	solveRaw(t, s1, fmt.Sprintf(base, key))
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Options{Store: st2})

	// The restarted server rebuilt the circuit and re-attached "base"
	// from the store before serving its first request.
	st := decodeAs[Stats](t, do(t, s2, "GET", "/stats", ""))
	if st.ReloadedCircuits != 1 || st.ReloadedResults != 1 {
		t.Fatalf("reload counters = %d circuits / %d results, want 1/1", st.ReloadedCircuits, st.ReloadedResults)
	}
	if w := do(t, s2, "GET", "/results?key="+key+"&name=base", ""); w.Code != http.StatusOK {
		t.Fatalf("reloaded result missing: %d %s", w.Code, w.Body.String())
	}

	got := solveRaw(t, s2, fmt.Sprintf(refine, key, `,"no_dedup":true`))
	if got.Dedup {
		t.Fatal("no_dedup solve was answered from the store")
	}
	if string(got.Result) != string(want.Result) {
		t.Fatalf("restart broke the chain:\nno restart: %s\nrestarted:  %s", want.Result, got.Result)
	}
}

// TestReloadSkipsForeignNumerics: the service serves only records this
// build's numerics wrote. The store holds a saved result written by this
// build, a copy of it as a build before the numerics stamp wrote it (no
// "numerics" field, so it decodes as 0), and the dedup record of the solve
// that saved it, stripped of its stamp the same way. The restarted server
// re-attaches the first result, skips and counts the second, and answers
// a repeat of the solve by solving again instead of from the foreign
// record.
func TestReloadSkipsForeignNumerics(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Store: st1})
	key := registerC17(t, s1, 17).Key
	solve := fmt.Sprintf(`{"key":%q,"max_iterations":4,"save_as":"current"}`, key)
	solveRaw(t, s1, solve)
	// unstamp rewrites the record under from as a pre-stamp build wrote it,
	// under to.
	unstamp := func(from, to string) {
		t.Helper()
		var rec map[string]json.RawMessage
		if ok, err := st1.Get(from, &rec); err != nil || !ok {
			t.Fatalf("%s not persisted: ok=%v err=%v", from, ok, err)
		}
		if string(rec["numerics"]) != fmt.Sprint(core.Numerics) {
			t.Fatalf("%s stamped %s, want %d", from, rec["numerics"], core.Numerics)
		}
		delete(rec, "numerics")
		if err := st1.Put(to, rec); err != nil {
			t.Fatal(err)
		}
	}
	unstamp(resultPrefix+key+"/current", resultPrefix+key+"/old")
	solveKeys := st1.Keys(solvePrefix)
	if len(solveKeys) != 1 {
		t.Fatalf("store holds %d solve records, want 1", len(solveKeys))
	}
	unstamp(solveKeys[0], solveKeys[0])
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Options{Store: st2})
	stats := decodeAs[Stats](t, do(t, s2, "GET", "/stats", ""))
	if stats.ReloadedResults != 1 || stats.ForeignResults != 1 {
		t.Fatalf("reloaded %d results and skipped %d foreign, want 1 and 1", stats.ReloadedResults, stats.ForeignResults)
	}
	circuits := decodeAs[[]circuitInfo](t, do(t, s2, "GET", "/circuits", ""))
	if len(circuits) != 1 || !reflect.DeepEqual(circuits[0].SavedResults, []string{"current"}) {
		t.Fatalf("circuits after reload = %+v, want one circuit saving only \"current\"", circuits)
	}
	for name, code := range map[string]int{"current": http.StatusOK, "old": http.StatusNotFound} {
		if w := do(t, s2, "GET", "/results?key="+key+"&name="+name, ""); w.Code != code {
			t.Errorf("GET /results %s: %d, want %d (%s)", name, w.Code, code, w.Body.String())
		}
	}
	if solveRaw(t, s2, solve).Dedup {
		t.Error("a repeat solve was answered from a record of other numerics")
	}
	if !solveRaw(t, s2, solve).Dedup {
		t.Error("the re-solve did not restamp its dedup record")
	}
}

// TestSolveDedupAccounting pins the dedup contract: an identical solve
// against a store-backed server returns the stored bytes without running
// the solver (solves counter unchanged, dedup_hits incremented), save_as
// still takes effect on a hit, no_dedup forces a real run, and any knob
// that changes result bits is a miss.
func TestSolveDedupAccounting(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st})
	key := registerC17(t, s, 17).Key

	body := fmt.Sprintf(`{"key":%q,"max_iterations":3}`, key)
	first := solveRaw(t, s, body)
	if first.Dedup {
		t.Fatal("first solve claims dedup")
	}
	second := solveRaw(t, s, body)
	if !second.Dedup {
		t.Fatal("identical second solve did not dedup")
	}
	if string(second.Result) != string(first.Result) {
		t.Fatalf("dedup returned different bytes:\n%s\n%s", first.Result, second.Result)
	}
	stats := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if stats.Solves != 1 || stats.DedupHits != 1 {
		t.Fatalf("solves=%d dedup_hits=%d, want 1 and 1", stats.Solves, stats.DedupHits)
	}
	if stats.StoreRecords == 0 {
		t.Fatal("store_records not reported")
	}

	// save_as is honored on a hit: the name exists without a new solve.
	saved := solveRaw(t, s, fmt.Sprintf(`{"key":%q,"max_iterations":3,"save_as":"dup"}`, key))
	if !saved.Dedup {
		t.Fatal("save_as variant should still dedup (save_as is not part of the key)")
	}
	if w := do(t, s, "GET", "/results?key="+key+"&name=dup", ""); w.Code != http.StatusOK {
		t.Fatalf("save_as on dedup hit did not save: %d", w.Code)
	}

	// no_dedup forces the solver to run again.
	forced := solveRaw(t, s, fmt.Sprintf(`{"key":%q,"max_iterations":3,"no_dedup":true}`, key))
	if forced.Dedup {
		t.Fatal("no_dedup solve was answered from the store")
	}
	if string(forced.Result) != string(first.Result) {
		t.Fatal("forced re-run changed bits — determinism broken")
	}
	stats = decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if stats.Solves != 2 {
		t.Fatalf("no_dedup run not counted: solves=%d", stats.Solves)
	}

	// A knob that changes result bits misses.
	miss := solveRaw(t, s, fmt.Sprintf(`{"key":%q,"max_iterations":2}`, key))
	if miss.Dedup {
		t.Fatal("different max_iterations must not dedup")
	}

	// Normalization: spelling out the defaults hashes like omitting them.
	def := solveRaw(t, s, fmt.Sprintf(`{"key":%q}`, key))
	if def.Dedup {
		t.Fatal("default solve deduped against a max_iterations:3 solve")
	}
	norm := solveRaw(t, s, fmt.Sprintf(`{"key":%q,"max_iterations":1000,"epsilon":0.01}`, key))
	if !norm.Dedup {
		t.Fatal("explicit defaults should dedup against the omitted-defaults solve")
	}
}

// TestStorelessServerNeverDedups pins that a server without -data behaves
// exactly as before the store existed.
func TestStorelessServerNeverDedups(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	body := fmt.Sprintf(`{"key":%q,"max_iterations":2}`, key)
	solveRaw(t, s, body)
	if again := solveRaw(t, s, body); again.Dedup {
		t.Fatal("storeless server claimed a dedup hit")
	}
	st := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if st.Solves != 2 || st.DedupHits != 0 || st.StoreRecords != 0 {
		t.Fatalf("storeless stats off: %+v", st)
	}
}

// watchEvent mirrors the progressEvent wire form for assertions.
type watchEvent struct {
	Kind       string `json:"kind"`
	Solve      int64  `json:"solve"`
	Iterations int    `json:"iterations"`
	Dedup      bool   `json:"dedup"`
	Iter       *struct {
		K   int     `json:"k"`
		Gap float64 `json:"gap"`
	} `json:"iter"`
}

// TestWatchCursorSemantics pins GET /watch long-polling: a solve's
// trajectory lands on the circuit's log as solve_start, one iter per
// solver iteration, and solve_done; a cursor resumes exactly after the
// last-seen event; a dedup-answered solve emits a dedup solve_done.
func TestWatchCursorSemantics(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key

	if w := do(t, s, "GET", "/watch", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("missing key: %d", w.Code)
	}
	if w := do(t, s, "GET", "/watch?key=nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown key: %d", w.Code)
	}
	if w := do(t, s, "GET", "/watch?key="+key+"&cursor=x", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("bad cursor: %d", w.Code)
	}

	// Before any solve: an empty log, cursor echoed back.
	empty := decodeAs[watchResponse](t, do(t, s, "GET", "/watch?key="+key, ""))
	if len(empty.Events) != 0 || empty.Next != 0 || empty.Gapped {
		t.Fatalf("pre-solve watch not empty: %+v", empty)
	}

	res := decodeAs[solveResponse](t, do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q,"max_iterations":3}`, key)))

	got := decodeAs[watchResponse](t, do(t, s, "GET", "/watch?key="+key, ""))
	kinds := map[string]int{}
	var events []watchEvent
	for _, ev := range got.Events {
		var we watchEvent
		if err := json.Unmarshal(ev.Data, &we); err != nil {
			t.Fatalf("bad event %s: %v", ev.Data, err)
		}
		events = append(events, we)
		kinds[we.Kind]++
	}
	if kinds["solve_start"] != 1 || kinds["solve_done"] != 1 {
		t.Fatalf("want one solve_start and one solve_done, got %v", kinds)
	}
	if kinds["iter"] != res.Result.Iterations {
		t.Fatalf("iter events = %d, want the solve's %d iterations", kinds["iter"], res.Result.Iterations)
	}
	if first, last := events[0], events[len(events)-1]; first.Kind != "solve_start" || last.Kind != "solve_done" {
		t.Fatalf("stream not bracketed: first %q last %q", first.Kind, last.Kind)
	}
	if done := events[len(events)-1]; done.Iterations != res.Result.Iterations {
		t.Fatalf("solve_done iterations %d != result %d", done.Iterations, res.Result.Iterations)
	}
	for i, we := range events[1 : len(events)-1] {
		if we.Iter == nil || we.Iter.K != i+1 {
			t.Fatalf("iter event %d carries k=%+v, want %d", i, we.Iter, i+1)
		}
	}

	// Cursor resume: everything before Next is consumed.
	rest := decodeAs[watchResponse](t, do(t, s, "GET", fmt.Sprintf("/watch?key=%s&cursor=%d", key, got.Next), ""))
	if len(rest.Events) != 0 || rest.Next != got.Next {
		t.Fatalf("cursor did not consume the stream: %+v", rest)
	}
	mid := decodeAs[watchResponse](t, do(t, s, "GET", fmt.Sprintf("/watch?key=%s&cursor=%d", key, got.Next-2), ""))
	if len(mid.Events) != 2 || mid.Next != got.Next {
		t.Fatalf("mid-stream cursor returned %d events next=%d, want 2 and %d", len(mid.Events), mid.Next, got.Next)
	}
}

// TestWatchSSEStream drives the SSE mode over a real connection: events
// stream out as id/data frames and the client's disconnect ends the
// handler.
func TestWatchSSEStream(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	if w := do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q,"max_iterations":2}`, key)); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
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
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var dataLines []string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			dataLines = append(dataLines, strings.TrimPrefix(line, "data: "))
			if strings.Contains(line, "solve_done") {
				break
			}
		}
	}
	// 2 iterations bracketed by solve_start and solve_done.
	if len(dataLines) != 4 {
		t.Fatalf("SSE data frames = %d (%v), want 4", len(dataLines), dataLines)
	}
	cancel() // the handler's Wait sees the disconnect and returns
}

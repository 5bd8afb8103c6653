package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestRunLifecycleOnWatch pins the one run lifecycle every run endpoint
// shares: a run the solver rejects (a negative delay bound) answers 422,
// and its circuit's watch log holds exactly its *_start event and then
// an error event under the same solve number — never a start left
// dangling.
func TestRunLifecycleOnWatch(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	for _, c := range []struct{ name, path, body, start string }{
		{"solve", "/solve", `{"key":%q,"a0":-5}`, "solve_start"},
		{"sweep", "/sweep", `{"key":%q,"a0":-5,"max_iterations":2}`, "sweep_start"},
		{"sweep stream", "/sweep", `{"key":%q,"a0":-5,"max_iterations":2,"stream":true}`, "sweep_start"},
		{"corners", "/sweep", `{"key":%q,"a0":-5,"max_iterations":2,"corners":true}`, "corners_start"},
		{"corners stream", "/sweep", `{"key":%q,"a0":-5,"max_iterations":2,"corners":true,"stream":true}`, "corners_start"},
		{"montecarlo", "/montecarlo", `{"key":%q,"a0":-5,"samples":2,"max_iterations":2}`, "mc_start"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cursor := decodeAs[watchResponse](t, do(t, s, "GET", "/watch?key="+key, "")).Next
			w := do(t, s, "POST", c.path, fmt.Sprintf(c.body, key))
			if w.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422 (%s)", w.Code, w.Body.String())
			}
			if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, "A0 must be positive") {
				t.Errorf("error %q does not name the rejected bound", e.Error)
			}
			got := decodeAs[watchResponse](t, do(t, s, "GET", fmt.Sprintf("/watch?key=%s&cursor=%d", key, cursor), ""))
			var kinds []string
			var ids []int64
			for _, ev := range got.Events {
				var we watchEvent
				if err := json.Unmarshal(ev.Data, &we); err != nil {
					t.Fatalf("bad event %s: %v", ev.Data, err)
				}
				kinds = append(kinds, we.Kind)
				ids = append(ids, we.Solve)
			}
			if len(kinds) != 2 || kinds[0] != c.start || kinds[1] != "error" {
				t.Fatalf("watch events %v, want [%s error]", kinds, c.start)
			}
			if ids[0] == 0 || ids[0] != ids[1] {
				t.Fatalf("solve numbers %v, want one nonzero number for the start and its error", ids)
			}
		})
	}
}

// TestRequestWorkIsBounded pins the cap on the solves one small body can
// ask for: a Monte-Carlo run or a bounds grid one solve over maxRunSolves
// answers 422 naming the cap, and is never admitted, so the circuit's
// watch log gets no start event.
func TestRequestWorkIsBounded(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	ones := func(n int) string { return "[1" + strings.Repeat(",1", n-1) + "]" }
	cursor := decodeAs[watchResponse](t, do(t, s, "GET", "/watch?key="+key, "")).Next
	for _, c := range []struct{ name, path, body string }{
		{"samples", "/montecarlo", fmt.Sprintf(`{"key":%q,"max_iterations":1,"samples":%d}`, key, maxRunSolves+1)},
		{"grid", "/sweep", fmt.Sprintf(`{"key":%q,"max_iterations":1,"delay_scale":%s,"noise_scale":%s}`, key, ones(65), ones(64))},
	} {
		w := do(t, s, "POST", c.path, c.body)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%.200s)", c.name, w.Code, w.Body.String())
		}
		if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, fmt.Sprint(maxRunSolves)) {
			t.Errorf("%s: error %q does not name the cap %d", c.name, e.Error, maxRunSolves)
		}
	}
	if got := decodeAs[watchResponse](t, do(t, s, "GET", fmt.Sprintf("/watch?key=%s&cursor=%d", key, cursor), "")); len(got.Events) != 0 {
		t.Errorf("rejected requests left %d watch events, want none", len(got.Events))
	}
}

// TestRunBodyCappedBeforeDecode: a /sweep or /montecarlo body larger than
// maxRunRequestBytes answers 413 before it decodes, so it allocates about
// the cap, not what the body would decode to (a 1 MiB axis of 1s took
// about 25 MB when it decoded first). A body the size of the largest
// valid request still decodes: an axis of 4,097 long factors gets the
// solve cap's 422, not 413.
func TestRunBodyCappedBeforeDecode(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	huge := fmt.Sprintf(`{"key":%q,"delay_scale":[1%s]}`, key, strings.Repeat(",1", 1<<19))
	for _, path := range []string{"/sweep", "/montecarlo"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := do(t, s, "POST", path, huge)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d-byte body got %d, want 413 (%.200s)", path, len(huge), w.Code, w.Body.String())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
			t.Errorf("%s: a %d-byte body allocated %d bytes before it was refused", path, len(huge), alloc)
		}
	}
	long := fmt.Sprintf(`{"key":%q,"max_iterations":1,"delay_scale":[1%s]}`, key, strings.Repeat(",1.0000000000000002", maxRunSolves))
	if w := do(t, s, "POST", "/sweep", long); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("a %d-byte axis of %d factors got %d, want the solve cap's 422 (%.200s)", len(long), maxRunSolves+1, w.Code, w.Body.String())
	}
}

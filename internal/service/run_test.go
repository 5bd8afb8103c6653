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
// dangling. It also pins the width an unset workers field means.
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

	for _, c := range []struct {
		workers string
		want    int
	}{
		{"", 1},
		{`,"workers":-1`, runtime.GOMAXPROCS(0)},
	} {
		w := do(t, s, "POST", "/solve", fmt.Sprintf(`{"key":%q,"max_iterations":2%s}`, key, c.workers))
		if w.Code != http.StatusOK {
			t.Fatalf("solve%s: %d %s", c.workers, w.Code, w.Body.String())
		}
		if got := decodeAs[solveResponse](t, w).Workers; got != c.want {
			t.Errorf("solve%s reports %d workers, want %d", c.workers, got, c.want)
		}
	}
}

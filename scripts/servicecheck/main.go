// Command servicecheck is the CI smoke client for cmd/ogwsd: against a
// running server it registers a synthetic circuit over HTTP, solves it,
// and (optionally) diffs the returned core.Result bit-for-bit against a
// committed golden fixture — the service oracle exercised over a real TCP
// connection instead of httptest (see TESTING.md). scripts/service_smoke.sh
// wires it to a freshly started binary.
//
// Usage:
//
//	servicecheck -addr 127.0.0.1:8372 [-synthetic c432] [-maxiter 30]
//	             [-golden testdata/golden/c432.json] [-timeout 60s]
//
// Exits non-zero on any HTTP failure or golden mismatch. The golden
// comparison is bitwise and assumes the architecture that generated the
// fixtures (amd64; see the root golden suite's FMA note).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/scripts/smoke"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("servicecheck: ")
	addr := flag.String("addr", "127.0.0.1:8372", "ogwsd address (host:port)")
	synthetic := flag.String("synthetic", "c432", "synthetic ISCAS85 circuit to register and solve")
	maxIter := flag.Int("maxiter", 30, "cap on OGWS iterations for the solve (0 = solver default 1000)")
	golden := flag.String("golden", "", "path to a committed core.Result golden fixture to diff the solve against bit-for-bit (default: skip the diff)")
	timeout := flag.Duration("timeout", 60*time.Second, "how long to wait for the server to become healthy")
	flag.Parse()
	base := "http://" + *addr

	if err := smoke.WaitHealthy(base, time.Now().Add(*timeout)); err != nil {
		log.Fatal(err)
	}

	var reg struct {
		Key     string `json:"key"`
		Circuit string `json:"circuit"`
		Cached  bool   `json:"cached"`
	}
	if err := smoke.PostJSON(base+"/circuits", map[string]any{"synthetic": *synthetic}, &reg); err != nil {
		log.Fatalf("register: %v", err)
	}
	log.Printf("registered %s (key %.12s…, cached=%v)", reg.Circuit, reg.Key, reg.Cached)

	var solve struct {
		Result   *core.Result `json:"result"`
		SolveSec float64      `json:"solve_sec"`
	}
	req := map[string]any{"key": reg.Key}
	if *maxIter > 0 {
		req["max_iterations"] = *maxIter
	}
	if err := smoke.PostJSON(base+"/solve", req, &solve); err != nil {
		log.Fatalf("solve: %v", err)
	}
	log.Printf("solved: %d iterations, converged=%v, area %.4g µm², %.2fs",
		solve.Result.Iterations, solve.Result.Converged, solve.Result.Area, solve.SolveSec)

	var stats struct {
		Solves     int64 `json:"solves"`
		NodeVisits int64 `json:"node_visits"`
	}
	if err := smoke.GetJSON(base+"/stats", &stats); err != nil {
		log.Fatalf("stats: %v", err)
	}
	if stats.Solves < 1 || stats.NodeVisits <= 0 {
		log.Fatalf("stats did not account for the solve: %+v", stats)
	}

	if *golden != "" {
		data, err := os.ReadFile(*golden)
		if err != nil {
			log.Fatal(err)
		}
		want := new(core.Result)
		if err := json.Unmarshal(data, want); err != nil {
			log.Fatal(err)
		}
		if !reflect.DeepEqual(want, solve.Result) {
			log.Fatalf("HTTP solve diverged from golden fixture %s (iterations %d vs %d, area %.17g vs %.17g)",
				*golden, solve.Result.Iterations, want.Iterations, solve.Result.Area, want.Area)
		}
		log.Printf("result matches %s bit-for-bit", *golden)
	}
	fmt.Println("servicecheck: OK")
}

// Command farmcheck is the CI smoke client for the distributed sizing
// farm: against a running ogwsd -coordinator it registers the golden
// 12×10 grid mesh, launches a real ogws-worker process rigged to die two
// cells into its first sweep batch (the fault plan
// -fault 'worker:cell:crash,after=1'), dispatches the
// golden 3×3 bounds-grid sweep so the doomed worker leases the spine and
// is killed mid-grid, then admits a healthy worker and verifies the
// reassembled grid is bit-identical to a local single-process
// sweep.Run — and, on amd64, to the committed golden fixture. It also
// asserts the coordinator actually reaped the dead worker and re-queued
// its job, so the fault path is provably exercised and not just
// survivable. scripts/farm_smoke.sh wires it to freshly built binaries.
//
// Usage:
//
//	farmcheck -addr 127.0.0.1:8372 -worker-bin /tmp/ogws-worker
//	          [-golden internal/sweep/testdata/golden_grid.json]
//	          [-timeout 120s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/sweep"
	"repro/scripts/smoke"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("farmcheck: ")
	addr := flag.String("addr", "127.0.0.1:8372", "ogwsd -coordinator address (host:port)")
	workerBin := flag.String("worker-bin", "", "path to a built ogws-worker binary (required)")
	golden := flag.String("golden", "", "committed sweep.Result golden fixture to diff against bit-for-bit on amd64 (default: skip)")
	timeout := flag.Duration("timeout", 120*time.Second, "overall deadline for server health, worker registration, and the sweep")
	flag.Parse()
	if *workerBin == "" {
		log.Fatal("-worker-bin is required")
	}
	base := "http://" + *addr
	deadline := time.Now().Add(*timeout)

	if err := smoke.WaitHealthy(base, deadline); err != nil {
		log.Fatal(err)
	}

	// The golden sweep suite's mesh: 12 wires × 10 segments, coupled.
	var reg struct {
		Key     string `json:"key"`
		Circuit string `json:"circuit"`
	}
	gridSrc := map[string]any{"grid": map[string]any{"width": 12, "layers": 10, "coupled": true}}
	if err := smoke.PostJSON(base+"/circuits", gridSrc, &reg); err != nil {
		log.Fatalf("register grid: %v", err)
	}
	log.Printf("registered %s (key %.12s…)", reg.Circuit, reg.Key)

	// The doomed worker registers alone, so when the sweep arrives it is
	// guaranteed to lease the spine batch — and die two cells into it,
	// mid-job, with its result stream open and no done marker.
	doomed, err := smoke.StartWorker(*workerBin, base, "doomed", "-fault", "worker:cell:crash,after=1")
	if err != nil {
		log.Fatalf("start doomed worker: %v", err)
	}
	if err := smoke.WaitWorkers(base, 1, deadline); err != nil {
		log.Fatalf("doomed worker never registered: %v", err)
	}

	// The golden grid: 3×3 bounds grid at 12 iterations over the
	// registered mesh's own calibration bounds — exactly the options that
	// generated internal/sweep/testdata/golden_grid.json.
	type sweepOutcome struct {
		res *sweep.Result
		err error
	}
	sweepDone := make(chan sweepOutcome, 1)
	go func() {
		var resp struct {
			Result *sweep.Result `json:"result"`
		}
		err := smoke.PostJSON(base+"/sweep", map[string]any{
			"key":            reg.Key,
			"delay_scale":    []float64{1, 1.06, 1.12},
			"noise_scale":    []float64{0.8, 1, 1.3},
			"max_iterations": 12,
		}, &resp)
		sweepDone <- sweepOutcome{resp.Result, err}
	}()

	// The injected fault must fire before the survivor is admitted, so the
	// kill always lands mid-grid with work outstanding. Exit code 3 is the
	// worker's fault-injection exit — anything else means the job flow
	// never reached the rigged cell.
	err = doomed.Wait()
	if code := doomed.ProcessState.ExitCode(); code != 3 {
		log.Fatalf("doomed worker exited with code %d (%v), want 3 (injected fault)", code, err)
	}
	log.Print("doomed worker died mid-grid as rigged (exit 3)")

	survivor, err := smoke.StartWorker(*workerBin, base, "survivor")
	if err != nil {
		log.Fatalf("start survivor worker: %v", err)
	}
	defer func() {
		survivor.Process.Signal(os.Interrupt) //nolint:errcheck // already exiting
		survivor.Wait()                       //nolint:errcheck
	}()

	var got sweepOutcome
	select {
	case got = <-sweepDone:
	case <-time.After(time.Until(deadline)):
		log.Fatal("distributed sweep did not complete in time")
	}
	if got.err != nil {
		log.Fatalf("sweep: %v", got.err)
	}
	if got.res == nil {
		log.Fatal("sweep returned no result")
	}
	log.Printf("distributed sweep reassembled %d cells (%d×%d)", len(got.res.Cells), got.res.Rows, got.res.Cols)

	// Oracle 1, everywhere: bit-identical to the single-process engine on
	// a fresh local replica of the same mesh.
	inst, b, err := bench.GridInstance(12, 10, true)
	if err != nil {
		log.Fatal(err)
	}
	want, err := sweep.Run(inst, sweep.Options{
		DelayScale:    []float64{1, 1.06, 1.12},
		NoiseScale:    []float64{0.8, 1, 1.3},
		Bounds:        &b,
		MaxIterations: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(smoke.StripTiming(want), smoke.StripTiming(got.res)) {
		log.Fatal("distributed sweep diverged from the single-process engine")
	}
	log.Print("grid matches a local single-process sweep bit-for-bit")

	// Oracle 2, on the fixture's architecture: the committed golden grid.
	if *golden != "" && runtime.GOARCH == "amd64" {
		data, err := os.ReadFile(*golden)
		if err != nil {
			log.Fatal(err)
		}
		goldenRes := new(sweep.Result)
		if err := json.Unmarshal(data, goldenRes); err != nil {
			log.Fatal(err)
		}
		if !reflect.DeepEqual(goldenRes, smoke.StripTiming(got.res)) {
			log.Fatalf("distributed sweep diverged from golden fixture %s", *golden)
		}
		log.Printf("grid matches %s bit-for-bit", *golden)
	}

	// The fault path must have been exercised for real: a reap, a
	// re-queue, and a completed run despite them.
	st, err := smoke.FarmStats(base)
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	if st.WorkersReaped < 1 || st.JobsRequeued < 1 {
		log.Fatalf("worker death did not exercise reap/re-queue: %+v", st)
	}
	if st.RunsCompleted < 1 || st.RunsFailed != 0 {
		log.Fatalf("run counters off: %+v", st)
	}
	log.Printf("coordinator reaped %d worker(s), re-queued %d job(s), completed %d run(s)",
		st.WorkersReaped, st.JobsRequeued, st.RunsCompleted)
	fmt.Println("farmcheck: OK")
}

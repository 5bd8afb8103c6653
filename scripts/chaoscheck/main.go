// Command chaoscheck is the CI chaos-oracle client: against a running
// ogwsd -coordinator -data started with store faults armed (-fault-store),
// it drives the golden distributed sweep through a seeded storm — a
// worker whose fault plan serves it a 500 on a lease, severs its result
// stream mid-upload, and crashes it mid-grid; a store whose first two
// journal appends fail — and then proves the robustness contract held:
//
//  1. Bytes: the reassembled grid is bit-identical to a local
//     single-process sweep.Run and, on amd64, to the committed golden
//     fixture. Faults must be invisible in the output.
//  2. Accounting: /stats owns every injected fault exactly once — the
//     store faults as store_errors (mode still rw below the degrade
//     threshold), the crash as a reap + re-queue, the lease 500 as a
//     reconnect. Nothing is double-counted, nothing vanishes. Once the
//     fault budget is spent, a further solve persists durably — the
//     record the smoke script's post-SIGTERM drain checkpoint must hold.
//
// The plans are seeded, so a failing run is replayed exactly by re-running
// with the same specs (printed on startup and echoed by the smoke script
// on failure). scripts/chaos_smoke.sh wires this to freshly built
// binaries and afterwards SIGTERMs the server to verify the graceful
// drain writes its final checkpoint.
//
// Usage:
//
//	chaoscheck -addr 127.0.0.1:8372 -worker-bin /tmp/ogws-worker
//	           [-golden internal/sweep/testdata/golden_grid.json]
//	           [-timeout 120s]
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
	"repro/internal/farm"
	"repro/internal/sweep"
	"repro/scripts/smoke"
)

// workerFaultSpec is the rigged worker's seeded plan: one synthetic 500
// on a lease call (forcing a re-register), one severed result stream
// (forcing a buffered replay), and a crash on its third streamed sweep
// cell (forcing a reap and re-queue). ogwsd's own -fault-store plan is
// set by chaos_smoke.sh; storeFaults must match its count.
const (
	workerFaultSpec = "seed=7;http:/farm/v1/lease:500,count=1;http:/farm/v1/result:cut,count=1,cut=96;worker:cell:crash,after=2,count=1"
	storeFaults     = 2
)

// stats is the slice of GET /stats the chaos oracle audits.
type stats struct {
	StoreErrors  int64       `json:"store_errors"`
	StoreMode    string      `json:"store_mode"`
	StoreRecords int         `json:"store_records"`
	Farm         *farm.Stats `json:"farm"`
}

func getStats(base string) (*stats, error) {
	st := new(stats)
	if err := smoke.GetJSON(base+"/stats", st); err != nil {
		return nil, err
	}
	if st.Farm == nil {
		return nil, fmt.Errorf("server at %s is not in -coordinator mode (no farm stats)", base)
	}
	return st, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaoscheck: ")
	addr := flag.String("addr", "127.0.0.1:8372", "ogwsd -coordinator address (host:port)")
	workerBin := flag.String("worker-bin", "", "path to a built ogws-worker binary (required)")
	golden := flag.String("golden", "", "committed sweep.Result golden fixture to diff against bit-for-bit on amd64 (default: skip)")
	timeout := flag.Duration("timeout", 120*time.Second, "overall deadline")
	flag.Parse()
	if *workerBin == "" {
		log.Fatal("-worker-bin is required")
	}
	base := "http://" + *addr
	deadline := time.Now().Add(*timeout)
	// The seeds ARE the repro recipe: log them before anything can fail.
	log.Printf("worker fault plan: %s", workerFaultSpec)

	if err := smoke.WaitHealthy(base, deadline); err != nil {
		log.Fatal(err)
	}

	// Register the golden mesh: its circuit persist is the first injected
	// store write failure.
	var reg struct {
		Key     string `json:"key"`
		Circuit string `json:"circuit"`
	}
	gridSrc := map[string]any{"grid": map[string]any{"width": 12, "layers": 10, "coupled": true}}
	if err := smoke.PostJSON(base+"/circuits", gridSrc, &reg); err != nil {
		log.Fatalf("register grid: %v", err)
	}
	log.Printf("registered %s (key %.12s…)", reg.Circuit, reg.Key)

	// The rigged worker registers alone so it leases the sweep's spine and
	// rides the whole storm: the lease 500, the severed stream, then the
	// crash on its third cell.
	doomed, err := smoke.StartWorker(*workerBin, base, "doomed",
		"-fault", workerFaultSpec, "-retry-base", "50ms", "-retry-cap", "500ms")
	if err != nil {
		log.Fatalf("start rigged worker: %v", err)
	}
	if err := smoke.WaitWorkers(base, 1, deadline); err != nil {
		log.Fatalf("rigged worker never registered: %v", err)
	}

	// The golden 3×3 bounds grid at 12 iterations — the exact options that
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

	// Exit 3 is the worker's injected-fault exit: the crash rule fired.
	err = doomed.Wait()
	if code := doomed.ProcessState.ExitCode(); code != 3 {
		log.Fatalf("rigged worker exited with code %d (%v), want 3 (injected crash; plan %s)", code, err, workerFaultSpec)
	}
	log.Print("rigged worker survived the 500 and the severed stream, then died of its injected crash (exit 3)")

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
	log.Printf("chaos sweep reassembled %d cells (%d×%d)", len(got.res.Cells), got.res.Rows, got.res.Cols)

	// One farm solve on the recovered fleet: its persist is the second
	// injected store write failure.
	var solveResp struct {
		Result json.RawMessage `json:"result"`
	}
	if err := smoke.PostJSON(base+"/solve", map[string]any{"key": reg.Key, "max_iterations": 12}, &solveResp); err != nil {
		log.Fatalf("solve: %v", err)
	}

	// The fault budget is now spent: a further solve (distinct knobs, so it
	// cannot dedup) must persist durably — proving the failed writes did
	// not poison the store, and seeding the drain's final checkpoint.
	if err := smoke.PostJSON(base+"/solve", map[string]any{
		"key": reg.Key, "max_iterations": 10, "save_as": "chaos-final",
	}, &solveResp); err != nil {
		log.Fatalf("post-fault solve: %v", err)
	}

	// Oracle 1: bit-identical to the fault-free single-process engine.
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
		log.Fatal("chaos sweep diverged from the single-process engine")
	}
	log.Print("grid matches a fault-free local sweep bit-for-bit")

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
			log.Fatalf("chaos sweep diverged from golden fixture %s", *golden)
		}
		log.Printf("grid matches %s bit-for-bit", *golden)
	}

	// Oracle 2: every injected fault accounted exactly once.
	st, err := getStats(base)
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	if st.StoreErrors != storeFaults {
		log.Fatalf("store fault accounting: store_errors %d, want exactly %d", st.StoreErrors, storeFaults)
	}
	if st.StoreMode != "rw" {
		log.Fatalf("store_mode %q after %d failures (below the degrade threshold), want rw", st.StoreMode, storeFaults)
	}
	f := st.Farm
	if f.WorkersReaped < 1 || f.JobsRequeued < 1 {
		log.Fatalf("injected crash not accounted as reap/re-queue: %+v", f)
	}
	if f.Reconnects < 1 {
		log.Fatalf("injected lease 500 not accounted as a reconnect: %+v", f)
	}
	if f.RunsCompleted != 3 || f.RunsFailed != 0 {
		log.Fatalf("run accounting: %+v, want 3 completed (sweep + 2 solves), 0 failed", f)
	}
	if st.StoreRecords < 2 {
		log.Fatalf("store holds %d records after the post-fault solve, want >=2 (solve + save_as)", st.StoreRecords)
	}
	log.Printf("accounted: %d store errors, %d reap(s), %d re-queue(s), %d reconnect(s), %d runs completed, %d records durable",
		st.StoreErrors, f.WorkersReaped, f.JobsRequeued, f.Reconnects, f.RunsCompleted, st.StoreRecords)
	fmt.Println("chaoscheck: OK")
}

package farm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/farm/api"
	"repro/internal/fault"
	"repro/internal/sweep"
)

// goldenOptions reproduces the sweep golden suite's grid exactly: the
// 12×10 coupled mesh, the 3×3 bounds grid, and the 12-iteration cap that
// generated internal/sweep/testdata/golden_grid.json.
func goldenOptions(b bench.Bounds) sweep.Options {
	return sweep.Options{
		DelayScale:    []float64{1, 1.06, 1.12},
		NoiseScale:    []float64{0.8, 1, 1.3},
		Bounds:        &b,
		MaxIterations: 12,
	}
}

func stripTiming(r *sweep.Result) *sweep.Result {
	for i := range r.Cells {
		r.Cells[i].SolveSec = 0
	}
	return r
}

// TestFarmDistributedSweepGolden is the farm oracle: a warm sweep
// distributed across two real worker processes-worth of RunWorker loops —
// the first rigged to die after two cells, mid-spine, with its stream
// open — must reassemble into the byte-identical grid the single-process
// engine produces, and (on the architecture that generated it) the
// committed golden fixture. Worker death, reaping, re-queueing, and
// duplicate replay are all exercised on the way.
func TestFarmDistributedSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep solves the full golden grid")
	}
	coord := New(Options{
		HeartbeatInterval: 25 * time.Millisecond,
		LeaseTTL:          250 * time.Millisecond,
		Logf:              t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	inst, b, err := bench.GridInstance(12, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := api.CircuitSpec{Key: bench.GridKey(12, 10, true), Grid: &api.GridSpec{Width: 12, Layers: 10, Coupled: true}}

	// The doomed worker starts alone, so it deterministically leases the
	// spine and dies two cells in — mid-job, stream open, no done marker.
	faulty := make(chan error, 1)
	go func() {
		faulty <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "doomed",
			// Events count from 0: the crash fires on the second cell.
			Fault:     fault.New(0, fault.Rule{Op: "worker:cell", Kind: fault.Crash, After: 1}),
			LeaseWait: 50 * time.Millisecond,
			Logf:      t.Logf,
		})
	}()

	type outcome struct {
		res *sweep.Result
		err error
	}
	sweepDone := make(chan outcome, 1)
	var mu sync.Mutex
	streamed := 0
	opt := goldenOptions(b)
	opt.OnCell = func(c *sweep.Cell) {
		mu.Lock()
		streamed++
		mu.Unlock()
	}
	go func() {
		res, err := sweep.RunOn(inst, opt, coord.Runner(ctx, spec))
		sweepDone <- outcome{res, err}
	}()

	// Wait for the injected fault before admitting the survivor, so the
	// death always lands mid-grid with work still outstanding.
	select {
	case err := <-faulty:
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("doomed worker exited with %v, want ErrFaultInjected", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("doomed worker never hit its injected fault")
	}
	healthy := make(chan error, 1)
	go func() {
		healthy <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "survivor",
			LeaseWait:   50 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()

	var got outcome
	select {
	case got = <-sweepDone:
	case <-time.After(2 * time.Minute):
		t.Fatal("distributed sweep did not complete")
	}
	if got.err != nil {
		t.Fatalf("distributed sweep failed: %v", got.err)
	}
	cancel()
	if err := <-healthy; err != nil {
		t.Fatalf("survivor exited with %v", err)
	}

	// Oracle 1: bit-identical to the single-process engine on a fresh
	// replica of the same mesh.
	inst2, b2, err := bench.GridInstance(12, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(inst2, goldenOptions(b2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(want), stripTiming(got.res)) {
		t.Errorf("distributed sweep diverged from the single-process grid")
	}

	// Oracle 2: the committed golden fixture, bitwise on its architecture.
	if runtime.GOARCH == "amd64" {
		data, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", "golden_grid.json"))
		if err != nil {
			t.Fatal(err)
		}
		var golden sweep.Result
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&golden, stripTiming(got.res)) {
			t.Errorf("distributed sweep diverged from the committed golden fixture")
		}
	}

	// The failure path must actually have been exercised, and streaming
	// must have emitted every cell exactly once.
	st := coord.StatsSnapshot()
	if st.WorkersReaped < 1 || st.JobsRequeued < 1 {
		t.Errorf("fault injection did not exercise reap/re-queue: %+v", st)
	}
	if st.RunsCompleted != 1 {
		t.Errorf("runs completed = %d, want 1", st.RunsCompleted)
	}
	mu.Lock()
	defer mu.Unlock()
	if streamed != len(got.res.Cells) {
		t.Errorf("OnCell fired %d times for %d cells", streamed, len(got.res.Cells))
	}
}

// TestColdDistributedSweepMatchesLocal covers the independent-dispatch
// path (a cold sweep: one independent batch, cut into one shard per live
// worker, every cell seeded from the initial sizes) against the local
// engine.
func TestColdDistributedSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real grid")
	}
	coord := New(Options{HeartbeatInterval: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	inst, b, err := bench.GridInstance(6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := api.CircuitSpec{Key: bench.GridKey(6, 4, true), Grid: &api.GridSpec{Width: 6, Layers: 4, Coupled: true}}
	opt := sweep.Options{
		DelayScale: []float64{1, 1.08}, NoiseScale: []float64{0.9, 1.2},
		Bounds: &b, MaxIterations: 6, Cold: true,
	}
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerOptions{Coordinator: ts.URL, LeaseWait: 50 * time.Millisecond})
	}()
	got, err := sweep.RunOn(inst, opt, coord.Runner(ctx, spec))
	if err != nil {
		t.Fatalf("distributed cold sweep failed: %v", err)
	}
	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exited with %v", err)
	}

	inst2, b2, err := bench.GridInstance(6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	opt2 := opt
	opt2.Bounds = &b2
	want, err := sweep.Run(inst2, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(want), stripTiming(got)) {
		t.Errorf("distributed cold sweep diverged from the local engine")
	}
}

package farm

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/farm/api"
	"repro/internal/fault"
	"repro/internal/variation"
)

// TestFarmMonteCarloMatchesLocal is the distributed Monte-Carlo oracle:
// a seed-7 run dispatched to a farm whose first worker is rigged to die
// two samples into its shard — stream open, no done marker — must
// reassemble, after the reap and re-queue, into the byte-identical
// report the single-process variation.MonteCarlo produces. A second
// dispatch with two live workers then cuts the same batch into two
// shards and must reassemble the same bytes again: every cell ships its
// drawn perturbation and bounds, so sharding is invisible in the result.
func TestFarmMonteCarloMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed Monte-Carlo solves real sample sets")
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

	inst, b, err := bench.GridInstance(6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := api.CircuitSpec{Key: bench.GridKey(6, 4, true), Grid: &api.GridSpec{Width: 6, Layers: 4, Coupled: true}}
	mcOpt := variation.MCOptions{
		Samples:       6,
		Seed:          7,
		Sigmas:        variation.Sigmas{R: 0.05, C: 0.05, Threshold: 0.08},
		Bounds:        &b,
		MaxIterations: 8,
	}

	// The local reference the farm must reproduce byte for byte.
	want, err := variation.MonteCarlo(inst, mcOpt)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker starts alone, so it deterministically leases the
	// single shard and dies two samples in.
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
		res *variation.MCResult
		err error
	}
	runDone := make(chan outcome, 1)
	var mu sync.Mutex
	streamed := 0
	go func() {
		farmOpt := mcOpt
		farmOpt.OnSample = func(*variation.Sample) {
			mu.Lock()
			streamed++
			mu.Unlock()
		}
		res, err := variation.MonteCarloOn(inst, farmOpt, coord.Runner(ctx, spec))
		runDone <- outcome{res, err}
	}()

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
	case got = <-runDone:
	case <-time.After(2 * time.Minute):
		t.Fatal("distributed Monte-Carlo did not complete")
	}
	if got.err != nil {
		t.Fatalf("distributed Monte-Carlo failed: %v", got.err)
	}
	if !reflect.DeepEqual(want.Samples, got.res.Samples) {
		t.Errorf("reassembled sample set diverged from the local run")
	}
	if !reflect.DeepEqual(want, got.res) {
		t.Errorf("distributed report diverged from the local report")
	}
	mu.Lock()
	if streamed != mcOpt.Samples {
		t.Errorf("onSample fired %d times for %d samples", streamed, mcOpt.Samples)
	}
	mu.Unlock()
	st := coord.StatsSnapshot()
	if st.WorkersReaped < 1 || st.JobsRequeued < 1 {
		t.Errorf("fault injection did not exercise reap/re-queue: %+v", st)
	}

	// Round 2: a second live worker makes the coordinator cut the range
	// into two shards — same bytes regardless.
	second := make(chan error, 1)
	go func() {
		second <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "second",
			LeaseWait:   50 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()
	for i := 0; coord.LiveWorkers() < 2 && i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	got2, err := variation.MonteCarloOn(inst, mcOpt, coord.Runner(ctx, spec))
	if err != nil {
		t.Fatalf("sharded Monte-Carlo failed: %v", err)
	}
	if !reflect.DeepEqual(want, got2) {
		t.Errorf("two-shard report diverged from the local run")
	}

	cancel()
	if err := <-healthy; err != nil {
		t.Fatalf("survivor exited with %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second worker exited with %v", err)
	}
}

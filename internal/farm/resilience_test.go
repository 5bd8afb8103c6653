package farm

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/fault"
	"repro/internal/sweep"
)

// fastRetry is a worker backoff tuned so reconnect tests spend
// milliseconds, not the production ramp.
var fastRetry = fault.Backoff{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond, Seed: 1}

// sweepOptions64 is a small cold 2×2 grid over the 6×4 mesh.
func sweepOptions64(b bench.Bounds) sweep.Options {
	return sweep.Options{
		DelayScale: []float64{1, 1.08}, NoiseScale: []float64{0.9, 1.2},
		Bounds: &b, MaxIterations: 4, Cold: true,
	}
}

func gridSpec64(t *testing.T) (api.CircuitSpec, api.SolveJob) {
	t.Helper()
	inst, b, err := bench.GridInstance(6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := api.CircuitSpec{Key: bench.GridKey(6, 4, true), Grid: &api.GridSpec{Width: 6, Layers: 4, Coupled: true}}
	job := api.SolveJob{
		Bounds:        b,
		MaxIterations: 4,
		Seed:          append([]float64(nil), inst.Eval.X...),
	}
	return spec, job
}

// localSolve64 reproduces exactly what a worker computes for the given
// job on the 6×4 grid — the bit-identity baseline.
func localSolve64(t *testing.T, job api.SolveJob) *core.Result {
	t.Helper()
	inst, _, err := bench.GridInstance(6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	b := job.Bounds
	opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	opt.MaxIterations = job.MaxIterations
	opt.Workers = -1
	replica, err := inst.Replica()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.NewSolver(replica, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	res, err := sol.RunFromDual(job.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWorkerSurvivesCoordinatorRestart is the regression test for the
// permanent-exit bug: a coordinator outage (process gone, port refusing
// connections) must not kill the worker. It has to back off, keep
// retrying, re-register with the replacement coordinator, and complete
// work there.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real grid")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	coordA := New(Options{HeartbeatInterval: 20 * time.Millisecond, Logf: t.Logf})
	srvA := &http.Server{Handler: coordA.Handler()}
	go srvA.Serve(ln) //nolint:errcheck // closed below

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerOptions{
			Coordinator: "http://" + addr,
			Name:        "phoenix",
			Backoff:     fastRetry,
			LeaseWait:   20 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()
	waitFor(t, "registration with coordinator A", func() bool { return coordA.LiveWorkers() == 1 })

	// The outage: coordinator A vanishes, taking the port with it. The
	// worker's in-flight lease long-poll dies and every retry hits
	// connection-refused until the replacement binds.
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	coordB := New(Options{HeartbeatInterval: 20 * time.Millisecond, Logf: t.Logf})
	coordB.Start(ctx)
	var ln2 net.Listener
	waitFor(t, "rebinding the coordinator port", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	srvB := &http.Server{Handler: coordB.Handler()}
	go srvB.Serve(ln2) //nolint:errcheck
	defer srvB.Close()

	waitFor(t, "re-registration with coordinator B", func() bool { return coordB.LiveWorkers() == 1 })

	// The reconnected worker must actually do work, bit-identically.
	spec, job := gridSpec64(t)
	got, err := coordB.Solve(ctx, spec, job)
	if err != nil {
		t.Fatalf("solve on the replacement coordinator: %v", err)
	}
	want := localSolve64(t, job)
	if !reflect.DeepEqual(got.Result.X, want.X) {
		t.Error("post-restart solve diverged from the local baseline")
	}

	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exited with %v, want clean shutdown", err)
	}
}

// TestWorkerReRegistersAfterReap drives the coordinator's injected clock
// past the lease TTL so a perfectly healthy worker gets reaped, then
// checks it re-registers (visible in the reconnects counter) and keeps
// serving instead of exiting.
func TestWorkerReRegistersAfterReap(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real grid")
	}
	var offset atomic.Int64
	base := time.Now()
	coord := New(Options{
		HeartbeatInterval: 10 * time.Millisecond,
		LeaseTTL:          50 * time.Millisecond,
		Now:               func() time.Time { return base.Add(time.Duration(offset.Load())) },
		Logf:              t.Logf,
	})
	// No reaper goroutine: the test reaps by hand, so nothing wakes the
	// frozen clock's parked polls but real work and the worker hanging up.
	// cancel runs before ts.Close, so the worker's last poll has ended by
	// the time Close waits for it.
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "steady",
			Backoff:     fastRetry,
			LeaseWait:   10 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()
	waitFor(t, "registration", func() bool { return coord.LiveWorkers() == 1 })

	// Jump the injected clock far past the TTL and scan: the reaper kills
	// the worker no matter how recently it heartbeat. A heartbeat that
	// lands between the jump and the scan re-stamps the worker at the new
	// time, so jump again until a scan wins.
	waitFor(t, "reap", func() bool {
		offset.Add(int64(time.Second))
		coord.reap()
		return coord.StatsSnapshot().WorkersReaped >= 1
	})
	waitFor(t, "re-registration", func() bool {
		st := coord.StatsSnapshot()
		return st.Reconnects >= 1 && st.LiveWorkers >= 1
	})

	spec, job := gridSpec64(t)
	if _, err := coord.Solve(ctx, spec, job); err != nil {
		t.Fatalf("solve after re-registration: %v", err)
	}

	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exited with %v, want clean shutdown", err)
	}
}

// TestResultStreamReplaysThroughFaults injects a mid-stream cut on the
// worker's first result upload and a synthetic 500 on its first replay:
// the buffered stream must be re-POSTed until it lands, and first-wins
// recording must keep the duplicate lines free. The run completes with
// the exact bits a fault-free worker produces.
func TestResultStreamReplaysThroughFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real grid")
	}
	coord := New(Options{HeartbeatInterval: 20 * time.Millisecond, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	plan := fault.New(11,
		fault.Rule{Op: "http:/farm/v1/result", Kind: fault.Cut, CutBytes: 64, Count: 1},
		fault.Rule{Op: "http:/farm/v1/result", Kind: fault.HTTP500, Count: 1},
	)
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "cursed-link",
			Backoff:     fastRetry,
			LeaseWait:   20 * time.Millisecond,
			Client:      &http.Client{Transport: fault.NewTransport(plan, nil)},
			Logf:        t.Logf,
		})
	}()

	spec, job := gridSpec64(t)
	got, err := coord.Solve(ctx, spec, job)
	if err != nil {
		t.Fatalf("solve through a faulted result stream: %v", err)
	}
	if plan.Total() != 2 {
		t.Errorf("injected %d faults (%v), want the cut and the 500", plan.Total(), plan.Counts())
	}
	want := localSolve64(t, job)
	if !reflect.DeepEqual(got.Result.X, want.X) {
		t.Error("replayed solve diverged from the local baseline")
	}
	st := coord.StatsSnapshot()
	if st.RunsCompleted != 1 || st.RunsFailed != 0 {
		t.Errorf("runs completed=%d failed=%d, want 1/0", st.RunsCompleted, st.RunsFailed)
	}

	cancel()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exited with %v, want clean shutdown", err)
	}
}

// TestWorkerCrashViaFaultPlan exercises the plan-driven generalization of
// FailAfterCells: a "worker:cell" Crash rule kills the worker mid-sweep,
// the reaper re-queues its job, and a healthy successor finishes the grid
// bit-identically.
func TestWorkerCrashViaFaultPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real grid")
	}
	coord := New(Options{
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTTL:          200 * time.Millisecond,
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
	spec, _ := gridSpec64(t)
	opt := sweepOptions64(b)

	// The doomed worker leases first and dies after its first streamed
	// cell, per the plan.
	plan := fault.New(5, fault.Rule{Op: "worker:cell", Kind: fault.Crash, Count: 1})
	doomed := make(chan error, 1)
	go func() {
		doomed <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "doomed",
			Fault:       plan,
			Backoff:     fastRetry,
			LeaseWait:   20 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()

	type outcome struct {
		res *sweep.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Sweep(ctx, spec, inst, opt)
		done <- outcome{res, err}
	}()

	select {
	case err := <-doomed:
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("doomed worker exited with %v, want ErrFaultInjected", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("doomed worker never crashed")
	}
	if plan.Total() != 1 {
		t.Fatalf("plan injected %d faults, want 1", plan.Total())
	}

	survivor := make(chan error, 1)
	go func() {
		survivor <- RunWorker(ctx, WorkerOptions{
			Coordinator: ts.URL,
			Name:        "survivor",
			Backoff:     fastRetry,
			LeaseWait:   20 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()

	var got outcome
	select {
	case got = <-done:
	case <-time.After(time.Minute):
		t.Fatal("sweep never completed")
	}
	if got.err != nil {
		t.Fatalf("sweep failed: %v", got.err)
	}

	inst2, b2, err := bench.GridInstance(6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(inst2, sweepOptions64(b2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTiming(want), stripTiming(got.res)) {
		t.Error("post-crash sweep diverged from the local engine")
	}

	cancel()
	if err := <-survivor; err != nil {
		t.Fatalf("survivor exited with %v", err)
	}
}

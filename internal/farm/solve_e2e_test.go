package farm

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/netlist"
)

// solveFarm spins up a coordinator with one in-process worker over real
// HTTP and returns it; cleanup tears both down and verifies the worker
// exited clean.
func solveFarm(t *testing.T) *Coordinator {
	t.Helper()
	coord := New(Options{HeartbeatInterval: 50 * time.Millisecond})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerOptions{Coordinator: ts.URL, LeaseWait: 50 * time.Millisecond})
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-workerErr; err != nil {
			t.Errorf("worker exited with %v", err)
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for coord.LiveWorkers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return coord
}

// farmSolve runs a one-cell batch, the plan of a /solve, on the farm.
func farmSolve(c *Coordinator, spec api.CircuitSpec, b bench.Batch) (*bench.Solved, error) {
	solved, err := c.Runner(context.Background(), spec)(bench.Plan{b}, bench.Schedule{})
	if err != nil {
		return nil, err
	}
	return solved[0], nil
}

// localSolve is the oracle for a farm solve from the lower bounds: a
// direct core solve on a replica of the instance. The seed is the
// instance's own initial sizes — the same default the service resolves
// for a fresh solve.
func localSolve(t *testing.T, inst *bench.Instance, b bench.Bounds, maxIter int) (*core.Result, *core.DualState) {
	t.Helper()
	opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	opt.MaxIterations = maxIter
	replica, err := inst.Replica()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.NewSolver(replica, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.RunFromDual(inst.Eval.X, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, sol.DualState()
}

// TestDistributedSolveSynthetic: a full solve of a built-in synthetic
// circuit dispatched to a worker — which materializes its own replica
// from the spec — returns the identical bytes a local solver produces.
func TestDistributedSolveSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real circuit over a worker round-trip")
	}
	coord := solveFarm(t)
	spec, ok := bench.SpecByName("c432")
	if !ok {
		t.Fatal("no c432 spec")
	}
	inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := bench.DeriveBounds(inst)

	got, err := farmSolve(coord, api.CircuitSpec{Key: "solve-c432", Synthetic: "c432"}, bench.Batch{
		S1: true, Duals: true, Seed: inst.Eval.X, MaxIterations: 8, Cells: []bench.Cell{{Bounds: b}},
	})
	if err != nil {
		t.Fatalf("distributed solve: %v", err)
	}
	wantRes, wantDual := localSolve(t, inst, b, 8)
	if !reflect.DeepEqual(wantRes, got.Result) {
		t.Errorf("distributed solve diverged from local")
	}
	if !reflect.DeepEqual(wantDual, got.Dual) {
		t.Errorf("distributed solve's dual state diverged from local")
	}
	if got.SolveSec <= 0 || got.Eval.FullRecomputes+got.Eval.IncRecomputes == 0 {
		t.Errorf("solve result is missing work counters: %+v", got)
	}
	if st := coord.StatsSnapshot(); st.Workers[0].CellsSolved != 1 {
		t.Errorf("worker cell counter: %+v", st.Workers)
	}
}

// TestDistributedSolveNetlistUpload covers the worker's raw-netlist
// materialization path: the spec ships .bench text and a geometry seed,
// and the worker's assembled replica solves to the same bytes as a local
// assembly of the same text.
func TestDistributedSolveNetlistUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real circuit over a worker round-trip")
	}
	coord := solveFarm(t)
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "c17.bench"))
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.Parse("c17", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.AssembleNetlist(nl, 7, bench.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := bench.DeriveBounds(inst)

	got, err := farmSolve(coord, api.CircuitSpec{Key: "solve-c17", Netlist: string(data), Name: "c17", Seed: 7}, bench.Batch{
		S1: true, Seed: inst.Eval.X, MaxIterations: 8, Cells: []bench.Cell{{Bounds: b}},
	})
	if err != nil {
		t.Fatalf("distributed netlist solve: %v", err)
	}
	wantRes, _ := localSolve(t, inst, b, 8)
	if !reflect.DeepEqual(wantRes, got.Result) {
		t.Errorf("distributed netlist solve diverged from local")
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/sweep"
)

// farmServer builds a coordinator-mode server the way ogwsd -coordinator
// does (service routes plus /farm/v1/ on one mux), serves it over real
// TCP, and runs one in-process worker against it. Returns the server and
// a cleanup-registered coordinator.
func farmServer(t *testing.T) (*Server, *farm.Coordinator) {
	t.Helper()
	coord := farm.New(farm.Options{HeartbeatInterval: 25 * time.Millisecond})
	s := New(Options{Farm: coord})
	mux := http.NewServeMux()
	mux.Handle("/farm/v1/", coord.Handler())
	mux.Handle("/", s)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	coord.Start(ctx)
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- farm.RunWorker(ctx, farm.WorkerOptions{
			Coordinator: ts.URL,
			Name:        "in-process",
			LeaseWait:   50 * time.Millisecond,
		})
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
	return s, coord
}

// registerGrid registers the shared grid-mesh circuit on a server.
func registerGrid(t *testing.T, s *Server) registerResponse {
	t.Helper()
	w := do(t, s, "POST", "/circuits", `{"grid":{"width":6,"layers":4,"coupled":true}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("register grid: %d %s", w.Code, w.Body.String())
	}
	return decodeAs[registerResponse](t, w)
}

// TestFarmDispatchMatchesLocal is the service-level half of the farm
// oracle: the same requests against a farm-backed server and a plain
// local server must produce identical results — solve, sweep and corners,
// modulo wall-clock — because farm dispatch is bit-invisible by contract.
func TestFarmDispatchMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("solves real grids")
	}
	farmed, coord := farmServer(t)
	local := New(Options{})

	fReg := registerGrid(t, farmed)
	lReg := registerGrid(t, local)
	if fReg.Key != lReg.Key {
		t.Fatalf("grid keys diverge: %s vs %s", fReg.Key, lReg.Key)
	}
	if fReg.Bounds != lReg.Bounds {
		t.Fatalf("grid bounds diverge: %+v vs %+v", fReg.Bounds, lReg.Bounds)
	}

	// Solve: dispatched to the worker on the farmed server, run in-process
	// on the local one; identical result bytes either way.
	solveBody := `{"key":"` + fReg.Key + `","max_iterations":6,"save_as":"warm"}`
	fw := do(t, farmed, "POST", "/solve", solveBody)
	lw := do(t, local, "POST", "/solve", solveBody)
	if fw.Code != http.StatusOK || lw.Code != http.StatusOK {
		t.Fatalf("solve: farm %d %s local %d %s", fw.Code, fw.Body.String(), lw.Code, lw.Body.String())
	}
	fRes := decodeAs[solveResponse](t, fw)
	lRes := decodeAs[solveResponse](t, lw)
	if !reflect.DeepEqual(fRes.Result, lRes.Result) {
		t.Errorf("farm solve diverged from local solve")
	}

	// Warm-start chain across the farm boundary: the saved result seeds a
	// second solve on both servers.
	warmBody := `{"key":"` + fReg.Key + `","max_iterations":6,"warm_from":"warm"}`
	fw = do(t, farmed, "POST", "/solve", warmBody)
	lw = do(t, local, "POST", "/solve", warmBody)
	if fw.Code != http.StatusOK || lw.Code != http.StatusOK {
		t.Fatalf("warm solve: farm %d %s local %d", fw.Code, fw.Body.String(), lw.Code)
	}
	if !reflect.DeepEqual(decodeAs[solveResponse](t, fw).Result, decodeAs[solveResponse](t, lw).Result) {
		t.Errorf("farm warm solve diverged from local")
	}

	// Sweep: the farmed server leases the wavefront to the worker and
	// reassembles; the local one runs the engine directly.
	sweepBody := `{"key":"` + fReg.Key + `","delay_scale":[1,1.08],"noise_scale":[0.9,1.2],"max_iterations":6}`
	fw = do(t, farmed, "POST", "/sweep", sweepBody)
	lw = do(t, local, "POST", "/sweep", sweepBody)
	if fw.Code != http.StatusOK || lw.Code != http.StatusOK {
		t.Fatalf("sweep: farm %d %s local %d", fw.Code, fw.Body.String(), lw.Code)
	}
	fSweep := decodeAs[sweepResponse](t, fw)
	lSweep := decodeAs[sweepResponse](t, lw)
	strip := func(r *sweep.Result) *sweep.Result {
		for i := range r.Cells {
			r.Cells[i].SolveSec = 0
		}
		return r
	}
	if !reflect.DeepEqual(strip(fSweep.Result), strip(lSweep.Result)) {
		t.Errorf("farm sweep diverged from local sweep")
	}

	// Streaming over the farm: one NDJSON line per cell plus the summary,
	// and the cells are the same bits as the buffered grid.
	fw = do(t, farmed, "POST", "/sweep", `{"key":"`+fReg.Key+`","delay_scale":[1,1.08],"noise_scale":[0.9,1.2],"max_iterations":6,"stream":true}`)
	if fw.Code != http.StatusOK {
		t.Fatalf("streamed farm sweep: %d %s", fw.Code, fw.Body.String())
	}
	dec := json.NewDecoder(fw.Body)
	cells := 0
	for {
		var line map[string]json.RawMessage
		if err := dec.Decode(&line); err != nil {
			break
		}
		if _, done := line["done"]; done {
			break
		}
		cells++
	}
	if cells != len(fSweep.Result.Cells) {
		t.Errorf("streamed farm sweep emitted %d cells, want %d", cells, len(fSweep.Result.Cells))
	}

	// Corners: the nominal cell and the perturbed batch waiting on it go
	// to the worker on the farmed server; the report is the local one.
	cornersBody := `{"key":"` + fReg.Key + `","corners":true,"max_iterations":6}`
	fw = do(t, farmed, "POST", "/sweep", cornersBody)
	lw = do(t, local, "POST", "/sweep", cornersBody)
	if fw.Code != http.StatusOK || lw.Code != http.StatusOK {
		t.Fatalf("corners: farm %d %s local %d", fw.Code, fw.Body.String(), lw.Code)
	}
	fCorners, lCorners := decodeAs[cornersResponse](t, fw), decodeAs[cornersResponse](t, lw)
	if fb, lb := mustJSON(t, fCorners.Report), mustJSON(t, lCorners.Report); !bytes.Equal(fb, lb) {
		t.Errorf("farm corners report diverged from the local one:\n farm %s\nlocal %s", fb, lb)
	}

	// The farm section of /stats reflects the work.
	sw := do(t, farmed, "GET", "/stats", "")
	st := decodeAs[Stats](t, sw)
	if st.Farm == nil {
		t.Fatal("farm-backed /stats has no farm section")
	}
	if st.Farm.LiveWorkers != 1 || len(st.Farm.Workers) != 1 {
		t.Fatalf("farm stats workers: %+v", st.Farm)
	}
	// Every first-recorded cell is credited: two solves, two 2×2 grids,
	// and the nominal and five corners.
	w0 := st.Farm.Workers[0]
	if w0.Name != "in-process" || w0.CellsSolved != 16 {
		t.Fatalf("worker counters: %+v", w0)
	}
	if st.Solves != 2 || st.Sweeps != 2 {
		t.Fatalf("service counters did not fold in remote work: %+v", st)
	}
	// Remote solve counters (evaluator work) fold into the host's stats.
	if st.Eval.FullRecomputes == 0 && st.Eval.IncRecomputes == 0 {
		t.Errorf("remote solve eval counters were not folded in: %+v", st.Eval)
	}
	_ = coord
}

// mustJSON marshals v, failing the test on error.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFarmFallsBackWithoutWorkers: a coordinator with no live workers
// must serve everything locally, not stall.
func TestFarmFallsBackWithoutWorkers(t *testing.T) {
	coord := farm.New(farm.Options{})
	s := New(Options{Farm: coord})
	reg := registerGrid(t, s)
	w := do(t, s, "POST", "/solve", `{"key":"`+reg.Key+`","max_iterations":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("workerless coordinator solve: %d %s", w.Code, w.Body.String())
	}
	st := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if st.Farm == nil || st.Farm.LiveWorkers != 0 || st.Farm.RunsCompleted != 0 {
		t.Fatalf("workerless farm stats: %+v", st.Farm)
	}
}

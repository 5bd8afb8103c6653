// Command variationcheck is the CI smoke client for the process-variation
// modes: against a running ogwsd -coordinator it registers the synthetic
// c432, runs a seeded POST /montecarlo locally on the server, re-runs it
// through a real ogws-worker process over TCP, and requires both to be
// byte-identical to each other AND to an in-process variation.MonteCarlo
// reference computed here — the determinism contract (same seed →
// byte-identical sample set, distributed ≡ single-process) proven across
// three independent processes. It then runs the corners sweep mode, which
// the live worker solves, diffs it against an in-process
// variation.CornerSweep the same way, and asserts /stats accounted every
// run and every farm cell. scripts/variation_smoke.sh wires it
// to freshly built binaries.
//
// Usage:
//
//	variationcheck -addr 127.0.0.1:8372 -worker-bin /tmp/ogws-worker
//	               [-timeout 120s]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/variation"
	"repro/scripts/smoke"
)

// canon re-marshals v so two JSON payloads compare structurally
// byte-for-byte regardless of their original field spacing.
func canon(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		log.Fatalf("marshal: %v", err)
	}
	return data
}

const (
	mcSamples = 4
	mcSeed    = 7
	mcIter    = 8
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("variationcheck: ")
	addr := flag.String("addr", "127.0.0.1:8372", "ogwsd -coordinator address (host:port)")
	workerBin := flag.String("worker-bin", "", "path to a built ogws-worker binary (required)")
	timeout := flag.Duration("timeout", 120*time.Second, "overall deadline for server health, worker registration, and the runs")
	flag.Parse()
	if *workerBin == "" {
		log.Fatal("-worker-bin is required")
	}
	base := "http://" + *addr
	deadline := time.Now().Add(*timeout)

	if err := smoke.WaitHealthy(base, deadline); err != nil {
		log.Fatal(err)
	}

	// The in-process reference this whole check pivots on: the same
	// instance the server builds for the synthetic spec, sized through
	// variation.MonteCarlo and variation.CornerSweep directly.
	spec, _ := bench.SpecByName("c432")
	inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sigmas := variation.Sigmas{R: 0.05, C: 0.05, Threshold: 0.08}
	wantMC, err := variation.MonteCarlo(inst, variation.MCOptions{
		Samples: mcSamples, Seed: mcSeed, Sigmas: sigmas, MaxIterations: mcIter,
	})
	if err != nil {
		log.Fatal(err)
	}
	wantCorners, err := variation.CornerSweep(inst, variation.CornerOptions{MaxIterations: mcIter})
	if err != nil {
		log.Fatal(err)
	}

	var reg struct {
		Key string `json:"key"`
	}
	if err := smoke.PostJSON(base+"/circuits", json.RawMessage(`{"synthetic":"c432"}`), &reg); err != nil {
		log.Fatal(err)
	}
	log.Printf("registered c432 as %s", reg.Key)

	mcBody := fmt.Sprintf(`{"key":%q,"samples":%d,"seed":%d,`+
		`"sigmas":{"r":0.05,"c":0.05,"threshold":0.08},"max_iterations":%d}`,
		reg.Key, mcSamples, mcSeed, mcIter)
	type mcResp struct {
		Dedup  bool            `json:"dedup"`
		Result json.RawMessage `json:"result"`
	}

	// Run 1: no workers are live yet, so the server solves locally.
	var local mcResp
	if err := smoke.PostJSON(base+"/montecarlo", json.RawMessage(mcBody), &local); err != nil {
		log.Fatal(err)
	}
	var localRes variation.MCResult
	if err := json.Unmarshal(local.Result, &localRes); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(canon(localRes), canon(wantMC)) {
		log.Fatal("server-local Monte-Carlo diverged from the in-process reference")
	}
	log.Printf("local Monte-Carlo matches the in-process reference (%d samples, yield %.3f)",
		len(localRes.Samples), localRes.Yield)

	// Admit a real worker over TCP and wait until the coordinator counts
	// it live — from then on /montecarlo dispatches to the farm.
	worker, err := smoke.StartWorker(*workerBin, base, "vc-w1")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		worker.Process.Kill()
		worker.Wait()
	}()
	if err := smoke.WaitWorkers(base, 1, deadline); err != nil {
		log.Fatalf("worker never registered with the coordinator: %v", err)
	}
	log.Printf("worker live, re-running distributed")

	// Run 2: same request, forced past dedup, solved on the worker. The
	// wire hop and the shard reassembly must not change a byte.
	var dist mcResp
	if err := smoke.PostJSON(base+"/montecarlo", json.RawMessage(`{"no_dedup":true,`+mcBody[1:]), &dist); err != nil {
		log.Fatal(err)
	}
	if dist.Dedup {
		log.Fatal("distributed run was answered from dedup, not solved")
	}
	var distRes variation.MCResult
	if err := json.Unmarshal(dist.Result, &distRes); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(canon(distRes), canon(wantMC)) {
		log.Fatal("distributed Monte-Carlo diverged from the in-process reference")
	}
	if !bytes.Equal(canon(distRes), canon(localRes)) {
		log.Fatal("distributed Monte-Carlo diverged from the server-local run")
	}
	log.Printf("distributed Monte-Carlo is byte-identical to local (%d samples)", len(distRes.Samples))

	// Corners mode, solved by the live worker, same reference discipline.
	var cr struct {
		Report json.RawMessage `json:"report"`
	}
	cornersBody := fmt.Sprintf(`{"key":%q,"corners":true,"max_iterations":%d}`, reg.Key, mcIter)
	if err := smoke.PostJSON(base+"/sweep", json.RawMessage(cornersBody), &cr); err != nil {
		log.Fatal(err)
	}
	var crRep variation.CornerReport
	if err := json.Unmarshal(cr.Report, &crRep); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(canon(crRep), canon(wantCorners)) {
		log.Fatal("corners sweep diverged from the in-process reference")
	}
	log.Printf("corners sweep matches the in-process reference (%d corners)", len(crRep.Cells))

	// Every run must be accounted.
	var st struct {
		MonteCarlos  int64 `json:"montecarlos"`
		MCSamples    int64 `json:"montecarlo_samples"`
		CornerSweeps int64 `json:"corner_sweeps"`
		CornerCells  int64 `json:"corner_cells"`
		Farm         struct {
			Workers []struct {
				CellsSolved int64 `json:"cells_solved"`
			} `json:"workers"`
		} `json:"farm"`
	}
	if err := smoke.GetJSON(base+"/stats", &st); err != nil {
		log.Fatal(err)
	}
	if st.MonteCarlos != 2 || st.MCSamples != 2*mcSamples {
		log.Fatalf("stats counted %d Monte-Carlo runs / %d samples, want 2 / %d",
			st.MonteCarlos, st.MCSamples, 2*mcSamples)
	}
	if st.CornerSweeps != 1 || st.CornerCells != int64(len(crRep.Cells)) {
		log.Fatalf("stats counted %d corner sweeps / %d cells, want 1 / %d",
			st.CornerSweeps, st.CornerCells, len(crRep.Cells))
	}
	// The one worker solved the distributed run's samples, the nominal cell
	// and every corner; the first run never reached it.
	if w, want := st.Farm.Workers, int64(mcSamples+1+len(crRep.Cells)); len(w) != 1 || w[0].CellsSolved != want {
		log.Fatalf("farm workers %+v, want one that solved %d cells: the distributed samples, the nominal and the corners", w, want)
	}
	log.Printf("PASS: variation modes are byte-identical across local, distributed, and in-process runs")
}

// Command storecheck is the CI smoke client for the durable result store
// (ogwsd -data): scripts/store_smoke.sh runs it twice against the same
// data directory, with a SIGKILL'd server restart in between.
//
// Phase seed (against the first server): register a synthetic circuit,
// solve it with save_as "base", run the warm-started refinement solve,
// and write the refinement's result bytes to -out. Phase verify (against
// the restarted server): confirm the restart reloaded the circuit and the
// "base" result from the store, re-run the same refinement with no_dedup
// (forcing the solver to actually run from the reloaded warm-start state),
// and diff its bytes against -expect — the restart bit-identity oracle,
// end to end over a real process boundary. The phase then re-issues the
// refinement without no_dedup and requires a dedup hit with the same
// bytes, pinning the store's answer-without-solving path too.
//
// Usage:
//
//	storecheck -addr 127.0.0.1:8372 -phase seed   -out  /tmp/refined.json
//	storecheck -addr 127.0.0.1:8372 -phase verify -expect /tmp/refined.json
//
// Exits non-zero on any HTTP failure, a missed reload, or a byte
// mismatch.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/scripts/smoke"
)

// solveResp captures the fields the smoke asserts on; Result stays raw
// for byte-level comparison.
type solveResp struct {
	Dedup  bool            `json:"dedup"`
	Result json.RawMessage `json:"result"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("storecheck: ")
	addr := flag.String("addr", "127.0.0.1:8372", "ogwsd address (host:port)")
	synthetic := flag.String("synthetic", "c432", "synthetic ISCAS85 circuit to register and solve")
	maxIter := flag.Int("maxiter", 12, "cap on OGWS iterations per solve")
	phase := flag.String("phase", "", "seed (first server) or verify (restarted server)")
	out := flag.String("out", "", "seed: file to write the refinement result bytes to")
	expect := flag.String("expect", "", "verify: file holding the seed phase's refinement result bytes")
	timeout := flag.Duration("timeout", 60*time.Second, "how long to wait for the server to become healthy")
	flag.Parse()
	base := "http://" + *addr

	if err := smoke.WaitHealthy(base, time.Now().Add(*timeout)); err != nil {
		log.Fatal(err)
	}

	var reg struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	if err := smoke.PostJSON(base+"/circuits", json.RawMessage(fmt.Sprintf(`{"synthetic":%q}`, *synthetic)), &reg); err != nil {
		log.Fatalf("register: %v", err)
	}

	refine := fmt.Sprintf(`{"key":%q,"max_iterations":%d,"warm_from":"base","save_as":"refined"`, reg.Key, *maxIter)
	switch *phase {
	case "seed":
		if *out == "" {
			log.Fatal("-phase seed requires -out")
		}
		var baseResp solveResp
		if err := smoke.PostJSON(base+"/solve", json.RawMessage(fmt.Sprintf(`{"key":%q,"max_iterations":%d,"save_as":"base"}`, reg.Key, *maxIter)), &baseResp); err != nil {
			log.Fatalf("base solve: %v", err)
		}
		var refined solveResp
		if err := smoke.PostJSON(base+"/solve", json.RawMessage(refine+"}"), &refined); err != nil {
			log.Fatalf("refinement solve: %v", err)
		}
		if err := os.WriteFile(*out, refined.Result, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("seed phase OK: %s solved and refined, %d result bytes written to %s", *synthetic, len(refined.Result), *out)
	case "verify":
		if *expect == "" {
			log.Fatal("-phase verify requires -expect")
		}
		want, err := os.ReadFile(*expect)
		if err != nil {
			log.Fatal(err)
		}
		// The restart must have reloaded the circuit (the register above
		// was a cache hit on the rebuilt instance) and the saved result.
		if !reg.Cached {
			log.Fatalf("restarted server rebuilt %s from scratch: the store did not reload it", *synthetic)
		}
		var st struct {
			ReloadedCircuits int64 `json:"reloaded_circuits"`
			ReloadedResults  int64 `json:"reloaded_results"`
			DedupHits        int64 `json:"dedup_hits"`
		}
		if err := smoke.GetJSON(base+"/stats", &st); err != nil {
			log.Fatalf("stats: %v", err)
		}
		if st.ReloadedCircuits < 1 || st.ReloadedResults < 1 {
			log.Fatalf("restart reloaded %d circuits / %d results, want at least 1/1", st.ReloadedCircuits, st.ReloadedResults)
		}
		// The solver really runs (no_dedup) from the reloaded warm-start
		// state; its bytes must equal the pre-restart chain's.
		var rerun solveResp
		if err := smoke.PostJSON(base+"/solve", json.RawMessage(refine+`,"no_dedup":true}`), &rerun); err != nil {
			log.Fatalf("post-restart refinement: %v", err)
		}
		if rerun.Dedup {
			log.Fatal("no_dedup solve was answered from the store")
		}
		if !bytes.Equal(rerun.Result, want) {
			log.Fatalf("restart broke bit-identity: %d bytes vs %d expected", len(rerun.Result), len(want))
		}
		// And the dedup path returns the same bytes without solving.
		var hit solveResp
		if err := smoke.PostJSON(base+"/solve", json.RawMessage(refine+"}"), &hit); err != nil {
			log.Fatalf("dedup refinement: %v", err)
		}
		if !hit.Dedup {
			log.Fatal("identical post-restart solve did not dedup against the store")
		}
		if !bytes.Equal(hit.Result, want) {
			log.Fatal("dedup hit returned different bytes than the original solve")
		}
		log.Printf("verify phase OK: reload + bit-identical warm re-run + dedup hit across a SIGKILL restart")
	default:
		log.Fatalf("unknown -phase %q (want seed or verify)", *phase)
	}
}

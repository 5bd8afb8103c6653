// Command ogws-worker is a farm worker node: it registers with an ogwsd
// coordinator (started with -coordinator), leases batches of cells (a
// solve, a sweep row or spine, a Monte-Carlo share) over the /farm/v1/
// job API, materializes its own bit-identical replica of each circuit,
// and streams solved cells back as NDJSON while heartbeating. Kill a worker mid-job and the coordinator re-queues its
// work — the reassembled output is byte-identical regardless (see
// internal/farm).
//
// Usage:
//
//	ogws-worker -coordinator http://127.0.0.1:8372 [-name lab-3]
//	            [-cache 4] [-fault spec] [-max-retries 0]
//	            [-retry-base 100ms] [-retry-cap 5s]
//
// -fault arms a deterministic fault plan (internal/fault spec syntax):
// http: rules fault the coordinator link, which the worker rides out with
// capped, jittered retries, and a worker:cell crash rule kills the worker
// (exit code 3, heartbeats stop) right after it streams the cell the rule
// selects. The farm smoke test's doomed worker runs with
// -fault 'worker:cell:crash,after=1' and dies after its second cell. A
// worker that loses its coordinator (restart, network partition, reap)
// re-registers with backoff and keeps serving; -max-retries bounds that
// persistence.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/farm"
	"repro/internal/fault"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogws-worker: ")
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:8372 (required)")
	name := flag.String("name", "", "worker label shown in the coordinator's /stats (default: assigned id)")
	cache := flag.Int("cache", 4, "local instance-cache capacity in circuits")
	faultSpec := flag.String("fault", "", "chaos testing: deterministic fault plan, e.g. 'seed=7;http:/farm/v1/result:cut,count=1;worker:cell:crash,after=2' — http: rules fault the coordinator link, worker:cell crash rules kill the worker mid-job (see internal/fault)")
	maxRetries := flag.Int("max-retries", 0, "give up after N consecutive transient coordinator failures (0 = retry forever with capped backoff)")
	retryBase := flag.Duration("retry-base", 0, "first retry backoff delay (0 = 100ms; doubles per attempt with deterministic jitter)")
	retryCap := flag.Duration("retry-cap", 0, "retry backoff ceiling (0 = 5s)")
	flag.Parse()
	if *coordinator == "" {
		log.Fatal("-coordinator is required")
	}

	var plan *fault.Plan
	client := http.DefaultClient
	if *faultSpec != "" {
		var err error
		plan, err = fault.Parse(*faultSpec)
		if err != nil {
			log.Fatalf("-fault: %v", err)
		}
		// The plan faults both sides: the HTTP link to the coordinator
		// (http: rules) and the worker's own lifecycle (worker: rules).
		client = &http.Client{Transport: fault.NewTransport(plan, nil)}
		log.Printf("CHAOS: fault plan armed (%s)", plan)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := farm.RunWorker(ctx, farm.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		CacheSize:   *cache,
		Fault:       plan,
		MaxRetries:  *maxRetries,
		Backoff:     fault.Backoff{Base: *retryBase, Cap: *retryCap},
		Client:      client,
		Logf:        log.Printf,
	})
	switch {
	case errors.Is(err, farm.ErrFaultInjected):
		log.Print(err)
		os.Exit(3)
	case err != nil:
		log.Fatal(err)
	}
}

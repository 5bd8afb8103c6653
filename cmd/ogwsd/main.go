// Command ogwsd serves the OGWS sizing stack over HTTP: register circuits
// once (netlist upload or built-in synthetic spec), then solve and sweep
// against the cached instance, with warm-start reuse between solves. See
// internal/service for the API and README.md for a walkthrough.
//
// Usage:
//
//	ogwsd [-addr 127.0.0.1:8372] [-cache 8] [-max-solves 0]
//	      [-addr-file path] [-data dir]
//	      [-coordinator] [-farm-heartbeat 2s]
//	      [-max-queued 0] [-drain-timeout 10s] [-store-probe 15s]
//	      [-fault-store spec]
//
// Every solve runs serially; a request's solves (a sweep's chains, its
// corners or Monte-Carlo samples) fan out over the cores. A Monte-Carlo
// request sets its own samples and seed; the server holds no defaults for
// them. In -coordinator mode a worker silent for three heartbeats is
// reaped and its jobs re-queued.
//
// SIGTERM/SIGINT triggers a graceful drain: new solves are shed with
// 503 + Retry-After, in-flight ones get -drain-timeout to finish, farm
// runs are cancelled, and the store writes a final checkpoint before the
// listener closes. -fault-store arms deterministic store-filesystem
// faults for the chaos smoke test (internal/fault spec syntax).
//
// With -coordinator the server additionally embeds the distributed-sizing
// coordinator (internal/farm): ogws-worker processes register under
// /farm/v1/, and solves/sweeps are dispatched to them whenever at least
// one worker is live — with bit-identical results to local execution.
//
// With -data the server opens a crash-safe durable result store
// (internal/store) in the given directory: registered circuits, save_as
// results, and finished solves survive restarts (warm_from chains
// reload on boot), and a repeated solve is answered from the store
// without re-running. Persistence never changes solved bits.
//
// Quick check once it is running:
//
//	curl -s -X POST localhost:8372/circuits -d '{"synthetic":"c432"}'
//	curl -s -X POST localhost:8372/solve -d '{"key":"<key from above>"}'
//	curl -s localhost:8372/stats
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/farm"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogwsd: ")
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts; default: none)")
	cache := flag.Int("cache", 8, "instance-cache capacity in circuits (LRU eviction beyond it)")
	maxSolves := flag.Int("max-solves", 0, "max concurrent solves/sweeps across all circuits (0 = all cores)")
	dataDir := flag.String("data", "", "durable result store directory: persist circuits, saved results, and solves across restarts (default: in-memory only)")
	coordinator := flag.Bool("coordinator", false, "embed the distributed-sizing coordinator: serve the /farm/v1/ job API and dispatch work to registered ogws-worker processes")
	farmHeartbeat := flag.Duration("farm-heartbeat", 2*time.Second, "worker heartbeat cadence in -coordinator mode")
	maxQueued := flag.Int("max-queued", 0, "max solve/sweep requests admitted but unfinished before new ones are shed 503 + Retry-After (0 = 4x -max-solves)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget: how long in-flight solves get to finish before farm runs are cancelled and the final checkpoint is forced")
	storeProbe := flag.Duration("store-probe", 0, "degraded store mode recovery-probe interval (0 = 15s; see /stats store_mode)")
	faultStore := flag.String("fault-store", "", "chaos testing: deterministic fault plan for the store filesystem, e.g. 'seed=7;fs:write:err,count=3' (see internal/fault)")
	flag.Parse()

	var coord *farm.Coordinator
	if *coordinator {
		coord = farm.New(farm.Options{
			HeartbeatInterval: *farmHeartbeat,
			Logf:              log.Printf,
		})
	}
	var st *store.Store
	if *dataDir != "" {
		var fs fault.FS
		if *faultStore != "" {
			plan, err := fault.Parse(*faultStore)
			if err != nil {
				log.Fatalf("-fault-store: %v", err)
			}
			fs = fault.NewFS(plan, fault.OS())
			log.Printf("CHAOS: store filesystem faults armed (%s)", plan)
		}
		var err error
		st, err = store.Open(*dataDir, store.Options{FS: fs})
		if err != nil {
			log.Fatalf("open store %s: %v", *dataDir, err)
		}
		defer st.Close()
		log.Printf("durable store at %s (%d records)", *dataDir, st.Len())
	}
	srv := service.New(service.Options{
		CacheSize:           *cache,
		MaxConcurrentSolves: *maxSolves,
		MaxQueuedSolves:     *maxQueued,
		StoreProbeInterval:  *storeProbe,
		Farm:                coord,
		Store:               st,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	log.Printf("listening on %s (cache %d instances)", bound, *cache)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	var handler http.Handler = srv
	if coord != nil {
		// The farm job API mounts beside the service routes; farm result
		// streams bypass the service's request-size cap (a long sweep's
		// NDJSON stream has no natural bound).
		mux := http.NewServeMux()
		mux.Handle("/farm/v1/", coord.Handler())
		mux.Handle("/", srv)
		handler = mux
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		coord.Start(ctx)
		log.Printf("coordinator mode: farm job API at /farm/v1/ (heartbeat %s)", *farmHeartbeat)
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("received %v, draining (budget %s)", s, *drainTimeout)
		// Drain first: shed new solves with 503, let in-flight ones finish
		// within the budget, cancel any farm runs a dead fleet would park
		// forever, and write the final store checkpoint. Only then close
		// the listener — clients being shed still deserve their 503s.
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Drain(dctx); err != nil {
			log.Printf("drain: %v", err)
		}
		dcancel()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
}

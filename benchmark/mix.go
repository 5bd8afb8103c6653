package main

import (
	"fmt"
	"net/http"
	"os"

	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/store"
)

// service-mix: a client of ogwsd over loopback HTTP, with a durable store
// in a temporary directory (real fsync), driven closed loop by one caller.

type serviceEnv struct {
	cat      serviceCatalog
	dir      string
	st       *store.Store
	ts       *loopback
	cl       *client
	ht       *httpTrace
	circuits map[string]registered
	// solveRequests counts the POST /solve requests of the window, the base
	// of service.dedup_hit_ratio.
	solveRequests int
}

var serviceCircuits = []string{"c432", "c1908", "c3540"}

func setupServiceMix(r *runner) (env, error) {
	cat := serviceFull
	if r.cfg.tiny {
		cat.MCSamples = 2
	}
	e := &serviceEnv{cat: cat, ht: newHTTPTrace()}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	var err error
	if e.dir, err = os.MkdirTemp("", "ogwsbench-store-"); err != nil {
		return nil, err
	}
	var fs fault.FS
	if r.cfg.trace {
		fs = timedFS{FS: fault.OS(), r: r}
	}
	if e.st, err = store.Open(e.dir, store.Options{FS: fs}); err != nil {
		return nil, err
	}
	var h http.Handler = service.New(service.Options{Store: e.st})
	if r.cfg.trace {
		h = e.ht.middleware(r, h)
	}
	if r.cfg.wrap != nil {
		h = r.cfg.wrap(h)
	}
	if e.ts, err = serveLoopback(h); err != nil {
		return nil, err
	}
	e.cl = newClient(e.ts.url, 1)
	if e.circuits, err = register(r, e.cl, serviceCircuits); err != nil {
		return nil, err
	}
	if err := e.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ok = true
	return e, nil
}

// warmup sends one untimed request of every kind. It also stores every
// solve the dedup kinds repeat, so those are hits from the first, and saves
// the result GET /results exports.
func (e *serviceEnv) warmup() error {
	for _, c := range e.cat.Repeats {
		if err := e.cl.postJSON("/solve", solveBody{Key: e.circuits[c].Key, A0: e.a0(c, e.cat.ScaleMid)}, nil); err != nil {
			return err
		}
	}
	c432 := e.circuits["c432"].Key
	warm := []httpReq{
		postReq("/solve", solveBody{Key: c432, A0: e.a0("c432", 1), SaveAs: "base"}),
		postReq("/solve", solveBody{Key: c432, A0: e.a0("c432", 1), SaveAs: "warmup", NoDedup: true}),
		postReq("/solve", solveBody{Key: c432, A0: e.a0("c432", 1), WarmFrom: "warmup", NoDedup: true}),
		postReq("/sweep", sweepBody{Key: c432, DelayScale: e.cat.Sweep.Delay, NoiseScale: e.cat.Sweep.Noise}),
		postReq("/montecarlo", mcBody{Key: c432, Samples: warmupSamples, Seed: mcSeed, Sigmas: mcSigmas, NoDedup: true}),
		{http.MethodGet, "/stats", nil},
	}
	for _, rq := range warm {
		if _, err := e.cl.send(rq, nil); err != nil {
			return err
		}
	}
	return nil
}

func (e *serviceEnv) a0(circuit string, scale float64) float64 {
	return e.circuits[circuit].Bounds.A0 * scale
}

// ops is one round: fresh no_dedup solves of every scale on the small
// circuits and of the middle scale on c3540, a repeat per circuit answered
// by dedup, a save_as / warm_from chain per circuit, a 2×3 /sweep, an
// 8-sample /montecarlo, GET /stats, and GET /results of the saved base
// solve. Each op is its own kind.
func (e *serviceEnv) ops(r *runner) []*httpOp {
	cat, lib := e.cat, r.lib
	solveOp := func(kind string, en solveEntry, noDedup bool) *httpOp {
		return &httpOp{
			kind: kind, units: 1,
			reqs:   []httpReq{postReq("/solve", solveBody{Key: e.circuits[en.Circuit].Key, A0: e.a0(en.Circuit, en.Scale), NoDedup: noDedup})},
			decode: decodeSolve(en.key()),
			expect: func() (*outcome, error) { return lib.solve(en) },
		}
	}
	var ops []*httpOp
	for _, c := range cat.FreshAll {
		for _, s := range cat.Scales {
			en := solveEntry{c, s, 0}
			ops = append(ops, solveOp("solve-"+en.kind(), en, true))
		}
	}
	mid := solveEntry{cat.FreshMid, cat.ScaleMid, 0}
	ops = append(ops, solveOp("solve-"+mid.kind(), mid, true))
	for _, c := range cat.Repeats {
		ops = append(ops, solveOp("dedup-"+c, solveEntry{c, cat.ScaleMid, 0}, false))
	}
	// A chain saves under the same name every round: the service keeps
	// MaxSavedResults names per circuit and evicts the oldest, so a new
	// name per round would evict the saved base solve GET /results reads.
	for _, c := range cat.Chains {
		s1, s2 := cat.ChainScales[0], cat.ChainScales[1]
		name := "chain-" + c
		ops = append(ops, &httpOp{
			kind: "chain-" + c, units: 1,
			reqs: []httpReq{
				postReq("/solve", solveBody{Key: e.circuits[c].Key, A0: e.a0(c, s1), SaveAs: name, NoDedup: true}),
				postReq("/solve", solveBody{Key: e.circuits[c].Key, A0: e.a0(c, s2), WarmFrom: name, NoDedup: true}),
			},
			decode: decodeSolve(chainKey(c, s1, s2)),
			expect: func() (*outcome, error) { return lib.chain(c, s1, s2) },
		})
	}
	c432 := e.circuits["c432"].Key
	base := solveEntry{"c432", 1, 0}
	ops = append(ops,
		&httpOp{
			kind: "sweep", units: 1,
			reqs:   []httpReq{postReq("/sweep", sweepBody{Key: c432, DelayScale: cat.Sweep.Delay, NoiseScale: cat.Sweep.Noise})},
			decode: decodeSweep("c432", cat.Sweep, false),
			expect: func() (*outcome, error) { return lib.sweep("c432", cat.Sweep, false) },
		},
		&httpOp{
			kind: "montecarlo", units: 1,
			reqs: []httpReq{postReq("/montecarlo", mcBody{
				Key: c432, Samples: cat.MCSamples, Seed: mcSeed, Sigmas: mcSigmas, NoDedup: true,
			})},
			decode: decodeMC("c432", mcSeed),
			expect: func() (*outcome, error) { return lib.montecarlo("c432", mcSeed, cat.MCSamples) },
		},
		&httpOp{kind: "stats", units: 1, reqs: []httpReq{{http.MethodGet, "/stats", nil}}},
		&httpOp{
			kind: "results", units: 1,
			reqs:   []httpReq{{http.MethodGet, fmt.Sprintf("/results?key=%s&name=base", c432), nil}},
			decode: decodeSolve(base.key()),
			expect: func() (*outcome, error) { return lib.solve(base) },
		},
	)
	for _, op := range ops {
		for _, rq := range op.reqs {
			if rq.path == "/solve" {
				e.solveRequests++
			}
		}
	}
	return ops
}

func (e *serviceEnv) run(r *runner) error {
	before, err := e.cl.stats()
	if err != nil {
		return err
	}
	err = r.closedLoop(func(round int) []task {
		ops := e.ops(r)
		tasks := make([]task, len(ops))
		for i, op := range ops {
			tasks[i] = httpTask(r, e.cl, e.ht, op, round)
		}
		return tasks
	})
	if err != nil || !r.cfg.trace {
		return err
	}
	after, err := e.cl.stats()
	if err != nil {
		return err
	}
	statsDelta(r, before, after, e.solveRequests)
	e.ht.fold(r)
	return nil
}

// layers times the rc passes on the mix's circuits, built in process.
func (e *serviceEnv) layers(r *runner) error {
	var insts []*libInstance
	for _, c := range serviceCircuits {
		li, err := r.lib.instance(c)
		if err != nil {
			return err
		}
		insts = append(insts, li)
	}
	return rcKernelTiming(r, insts)
}

func (e *serviceEnv) close() {
	if e.cl != nil {
		e.cl.close()
	}
	if e.ts != nil {
		e.ts.close()
	}
	if e.st != nil {
		e.st.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

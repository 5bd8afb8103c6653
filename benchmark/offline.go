package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rc"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// The two in-process workloads: a designer calling the library (or the
// ogws CLI) for cold solves, and design-space exploration batches.

// ---- shared hooks ----

// iterHook times the gaps between a solve's OnIteration calls and adds up
// the evaluator work each iteration reports.
type iterHook struct {
	r    *runner
	oc   opCtx
	last time.Duration
	seen bool
}

func (h *iterHook) observe(p core.IterProgress) {
	now := h.r.tr.now()
	if h.seen {
		h.r.acc.sample("core.iter_ms", ms(now-h.last))
		h.r.tr.record(0, "core.iteration", h.oc.span, h.oc.idx, h.last, now)
	}
	h.last, h.seen = now, true
	h.r.countEval(p.Eval)
}

func (r *runner) countEval(s rc.EvalStats) {
	r.acc.add("rc.visits", float64(s.NodeVisits()))
	r.acc.add("rc.full_rec", float64(s.FullRecomputes))
	r.acc.add("rc.inc_rec", float64(s.IncRecomputes))
	r.acc.add("rc.cutover_rec", float64(s.CutoverRecomputes))
}

// countResult adds one traced solve's iteration work.
func (r *runner) countResult(res *core.Result) {
	r.acc.add("core.iterations", float64(res.Iterations))
	r.acc.add("core.lrs_sweeps", float64(res.LRSSweepsTotal))
	r.acc.add("core.solved", 1)
}

// rcKernelTiming times the evaluator's passes standalone on each circuit
// (serial schedule, no solver around them): a full Recompute plus
// UpstreamResistance, and the incremental pair after a 16-node
// perturbation, each reported per node-body visit.
func rcKernelTiming(r *runner, insts []*libInstance) error {
	const reps, perturbed = 20, 16
	for _, li := range insts {
		ev, err := li.inst.Replica()
		if err != nil {
			return err
		}
		n := len(ev.X)
		lambda, dst := make([]float64, n), make([]float64, n)
		for i := range lambda {
			lambda[i] = 1
		}
		ev.Recompute()
		ev.UpstreamResistance(lambda, dst)
		s0, t0 := ev.Stats(), time.Now()
		for k := 0; k < reps; k++ {
			ev.Recompute()
			ev.UpstreamResistance(lambda, dst)
		}
		r.acc.add("rc.full_ns", float64(time.Since(t0)))
		r.acc.add("rc.full_visits", float64(ev.Stats().Sub(s0).NodeVisits()))

		g := newRNG(uint64(n), "cone")
		var coneNs time.Duration
		var coneVisits int64
		for k := 0; k < reps; k++ {
			for moved := 0; moved < perturbed; {
				i := g.intn(n)
				if _, err := ev.SetSize(i, ev.X[i]*(1+0.02*g.float())); err == nil {
					moved++
				}
			}
			s, t := ev.Stats(), time.Now()
			ev.RecomputeIncremental()
			ev.UpstreamResistanceIncremental(lambda, dst)
			coneNs += time.Since(t)
			coneVisits += ev.Stats().Sub(s).NodeVisits()
		}
		r.acc.add("rc.cone_ns", float64(coneNs))
		r.acc.add("rc.cone_visits", float64(coneVisits))
	}
	return nil
}

func buildAll(r *runner, names []string) (map[string]*libInstance, error) {
	insts := map[string]*libInstance{}
	start := time.Now()
	for _, name := range names {
		if _, ok := insts[name]; ok {
			continue
		}
		inst, b, err := buildCircuit(name)
		if err != nil {
			return nil, err
		}
		insts[name] = &libInstance{inst, b}
	}
	r.buildSec = time.Since(start).Seconds()
	return insts, nil
}

// ---- solve-offline ----

type solveOfflineEnv struct {
	insts   map[string]*libInstance
	catalog []solveEntry
}

func setupSolveOffline(r *runner) (env, error) {
	cat := solveOfflineCatalog
	if r.cfg.tiny {
		cat = []solveEntry{{"c432", 1.00, 0}, {"c432", 1.05, 0}}
	}
	names := make([]string, len(cat))
	for i, en := range cat {
		names[i] = en.Circuit
	}
	insts, err := buildAll(r, names)
	if err != nil {
		return nil, err
	}
	e := &solveOfflineEnv{insts: insts, catalog: cat}
	// One untimed warm-up solve, at the window's Workers=1.
	if _, _, err := e.solve(r, cat[0], 1, opCtx{}); err != nil {
		return nil, err
	}
	return e, nil
}

// solve is one cold solve as a library user runs it: a fresh replica, the
// default options at the entry's bounds, Workers as given (1 in the window;
// 0 = all cores for the traced run's core.shard_speedup).
func (e *solveOfflineEnv) solve(r *runner, en solveEntry, workers int, oc opCtx) (*core.Result, time.Duration, error) {
	li := e.insts[en.Circuit]
	ev, err := li.inst.Replica()
	if err != nil {
		return nil, 0, err
	}
	opt := core.DefaultOptions(li.bounds.A0*en.Scale, li.bounds.NoiseBound, li.bounds.PowerBound)
	if en.MaxIter > 0 {
		opt.MaxIterations = en.MaxIter
	}
	opt.Workers = workers
	var hook *iterHook
	if oc.traced {
		hook = &iterHook{r: r, oc: oc}
		opt.OnIteration = hook.observe
	}
	sol, err := core.NewSolver(ev, opt)
	if err != nil {
		return nil, 0, err
	}
	defer sol.Close()
	start := time.Now()
	res, err := sol.Run()
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	if oc.traced {
		r.countResult(res)
		r.acc.add("rc.visit_solves", 1)
		r.acc.add("core.solve_ns", float64(d))
		r.acc.add("core.hyst_trips", float64(sol.HysteresisTrips()))
		r.acc.add("core.hyst_solves", 1)
	}
	return res, d, nil
}

// run solves at Workers=1. The ogws CLI default is all cores, but on the
// two-core shared reference box every cold solve is slower at Workers=2,
// and two solver threads feel a slowdown of either vCPU: in back-to-back
// sets of ten runs, latency_p50_ms spread 25% at Workers=0 and 14% at
// Workers=1. core.shard_speedup, in the traced run, keeps the comparison
// with all cores.
func (e *solveOfflineEnv) run(r *runner) error {
	return r.closedLoop(func(int) []task {
		tasks := make([]task, len(e.catalog))
		for i, en := range e.catalog {
			tasks[i] = task{kind: en.kind(), units: 1, run: func(oc opCtx) (func() error, error) {
				res, d, err := e.solve(r, en, 1, oc)
				if err != nil {
					return nil, err
				}
				if !oc.traced {
					r.acc.sample("core.solve_s."+en.Circuit, d.Seconds())
				}
				items := []keyed{{en.key(), qualityOf(res)}}
				return func() error { return r.checkItems(items) }, nil
			}}
		}
		return tasks
	})
}

// layers measures core.shard_speedup — the untraced rounds at Workers=1
// against one more round at Workers=0 (all cores) — and the standalone rc
// pass timings.
func (e *solveOfflineEnv) layers(r *runner) error {
	start := time.Now()
	for _, en := range e.catalog {
		if _, _, err := e.solve(r, en, 0, opCtx{}); err != nil {
			return err
		}
	}
	r.acc.set("core.shard_speedup", ratio(r.untracedRoundMean(), time.Since(start).Seconds()))
	return rcKernelTiming(r, mapValues(e.insts))
}

func (e *solveOfflineEnv) close() {}

// mapValues returns the instances in name order, so the kernel timing walks
// them deterministically.
func mapValues(m map[string]*libInstance) []*libInstance {
	out := make([]*libInstance, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, m[k])
	}
	return out
}

// ---- explore-batch ----

type exploreEnv struct {
	cat   exploreCatalog
	insts map[string]*libInstance
	// lockstepSec is the untraced lockstep Monte-Carlo wall times, the
	// baseline of variation.lockstep_speedup.
	lockstepSec []float64
}

func setupExploreBatch(r *runner) (env, error) {
	cat := exploreFull
	if r.cfg.tiny {
		cat.Grid = cat.Grid.prefix(2, 2)
		cat.CornerCircuit = cat.WarmupCorners
		cat.MCSamples = 4
	}
	insts, err := buildAll(r, []string{cat.SweepCircuit, cat.CornerCircuit, cat.MCCircuit, cat.WarmupCorners})
	if err != nil {
		return nil, err
	}
	e := &exploreEnv{cat: cat, insts: insts}
	// One untimed warm-up op per kind, each a cheap instance of its kind.
	sw, small := e.insts[cat.SweepCircuit], cat.Grid.prefix(2, 2)
	for _, cold := range []bool{false, true} {
		if _, err := sweep.Run(sw.inst, sweep.Options{
			DelayScale: small.Delay, NoiseScale: small.Noise, Bounds: &sw.bounds, Cold: cold,
		}); err != nil {
			return nil, err
		}
	}
	if _, err := variation.CornerSweep(e.insts[cat.WarmupCorners].inst, variation.CornerOptions{MaxIterations: cat.CornerMaxIter, Workers: 1}); err != nil {
		return nil, err
	}
	mc := e.insts[cat.MCCircuit]
	if _, err := variation.MonteCarlo(mc.inst, variation.MCOptions{
		Samples: warmupSamples, Seed: mcSeed, Sigmas: mcSigmas, Bounds: &mc.bounds, Workers: 1,
	}); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *exploreEnv) sweepTask(r *runner, cold bool) task {
	cat, li := e.cat, e.insts[e.cat.SweepCircuit]
	kind := "sweep-warm"
	if cold {
		kind = "sweep-cold"
	}
	return task{kind: kind, units: cat.Grid.cells(), run: func(oc opCtx) (func() error, error) {
		opt := sweep.Options{
			DelayScale: cat.Grid.Delay, NoiseScale: cat.Grid.Noise, Bounds: &li.bounds, Cold: cold,
		}
		if oc.traced {
			e.installSweepHooks(r, oc, &opt)
		}
		start := time.Now()
		res, err := sweep.Run(li.inst, opt)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if oc.traced {
			r.acc.add("sweep.calls", 1)
			r.acc.add("sweep.call_s", d.Seconds())
			r.acc.add("sweep.width_s", d.Seconds()*float64(runtime.GOMAXPROCS(0)))
		}
		items, err := sweepItems(cat.SweepCircuit, cat.Grid, cold, res)
		if err != nil {
			return nil, err
		}
		return func() error { return r.checkItems(items) }, nil
	}}
}

// installSweepHooks observes every cell (OnCell) and every iteration of
// every cell (OnProgress); rows solve concurrently, so the per-cell
// iteration clocks sit behind a lock.
func (e *exploreEnv) installSweepHooks(r *runner, oc opCtx, opt *sweep.Options) {
	var mu sync.Mutex
	last := map[[2]int]time.Duration{}
	opt.OnProgress = func(row, col int, p core.IterProgress) {
		now := r.tr.now()
		mu.Lock()
		prev, seen := last[[2]int{row, col}]
		last[[2]int{row, col}] = now
		mu.Unlock()
		if seen {
			r.acc.sample("core.iter_ms", ms(now-prev))
		}
		r.countEval(p.Eval)
	}
	opt.OnCell = func(c *sweep.Cell) {
		now := r.tr.now()
		r.tr.record(0, "sweep.cell", oc.span, oc.idx, now-time.Duration(c.SolveSec*1e9), now)
		r.acc.add("sweep.cells", 1)
		r.acc.add("sweep.cell_solve_s", c.SolveSec)
		r.acc.add("sweep.lrs_sweeps", float64(c.Result.LRSSweepsTotal))
		r.acc.add("rc.visit_solves", 1)
		r.acc.add("core.solve_ns", c.SolveSec*1e9)
		r.countResult(c.Result)
	}
}

func (e *exploreEnv) cornerTask(r *runner) task {
	cat, li := e.cat, e.insts[e.cat.CornerCircuit]
	units := 1 + len(variation.StandardCorners())
	return task{kind: "corners", units: units, run: func(oc opCtx) (func() error, error) {
		start := time.Now()
		res, err := variation.CornerSweep(li.inst, variation.CornerOptions{MaxIterations: cat.CornerMaxIter, Workers: 1})
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if oc.traced {
			r.acc.add("corners.cells", float64(units))
			r.acc.add("corners.call_s", d.Seconds())
			r.countResult(res.Nominal)
			for _, c := range res.Cells {
				r.countResult(c.Result)
			}
		}
		items := cornerItems(cat.CornerCircuit, cat.CornerMaxIter, res)
		return func() error { return r.checkItems(items) }, nil
	}}
}

func (e *exploreEnv) mcTask(r *runner) task {
	cat, li := e.cat, e.insts[e.cat.MCCircuit]
	return task{kind: "montecarlo", units: cat.MCSamples, run: func(oc opCtx) (func() error, error) {
		start := time.Now()
		res, err := variation.MonteCarlo(li.inst, variation.MCOptions{
			Samples: cat.MCSamples, Seed: mcSeed, Sigmas: mcSigmas, Bounds: &li.bounds, Workers: 1,
		})
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if oc.traced {
			r.acc.add("mc.samples", float64(cat.MCSamples))
			r.acc.add("mc.call_s", d.Seconds())
			for _, s := range res.Samples {
				r.countResult(s.Result)
			}
		} else {
			e.lockstepSec = append(e.lockstepSec, d.Seconds())
		}
		items, err := mcItems(cat.MCCircuit, mcSeed, res)
		if err != nil {
			return nil, err
		}
		return func() error { return r.checkItems(items) }, nil
	}}
}

func (e *exploreEnv) run(r *runner) error {
	return r.closedLoop(func(int) []task {
		return []task{e.sweepTask(r, false), e.sweepTask(r, true), e.cornerTask(r), e.mcTask(r)}
	})
}

// layers measures variation.lockstep_speedup — the Monte-Carlo op solved
// solo against the median of its untraced lockstep ops — and the rc pass
// timings.
func (e *exploreEnv) layers(r *runner) error {
	li := e.insts[e.cat.MCCircuit]
	start := time.Now()
	if _, err := variation.MonteCarlo(li.inst, variation.MCOptions{
		Samples: e.cat.MCSamples, Seed: mcSeed, Sigmas: mcSigmas, Bounds: &li.bounds, Workers: 1, Solo: true,
	}); err != nil {
		return err
	}
	r.acc.set("variation.lockstep_speedup", ratio(time.Since(start).Seconds(), median(e.lockstepSec)))
	return rcKernelTiming(r, mapValues(e.insts))
}

func (e *exploreEnv) close() {}

package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one workload run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// spansOut, when set, receives the traced run's spans as JSON.
	spansOut string
	// setupRuns is how many set-ups the run makes (the constant of the same
	// name outside tests); setup_s is their median.
	setupRuns int

	// Test hooks: a test-sized catalog, an exact round count instead of
	// the window, verification of every op, and a handler wrapper in front
	// of the service.
	tiny      bool
	rounds    int
	verifyAll bool
	wrap      func(http.Handler) http.Handler
}

// setupRuns is how many set-ups a run makes. The first is the one the
// window runs on; the others are spread through the window, between rounds
// and off its clock, each closed again at once. The shared host's speed
// drifts over tens of seconds, and a set-up takes 0.1–0.5 s: nine made back
// to back all sample one moment of it, and over ten runs their medians
// spread 40% where the window's metrics, taken over 30 s, spread 12–19%.
const setupRuns = 9

// env is a set-up workload.
type env interface {
	// run executes the timed window.
	run(r *runner) error
	// layers takes the traced run's extra measurements, after the window.
	layers(r *runner) error
	close()
}

// workloads maps each workload to its set-up; the runner keeps the first
// set-up for the window and times the others only.
var workloads = map[string]func(r *runner) (env, error){
	wSolveOffline: setupSolveOffline,
	wExploreBatch: setupExploreBatch,
	wServiceMix:   setupServiceMix,
}

// opRecord is one op of the timed window and the work units it completed.
type opRecord struct {
	kind    string
	units   int
	latency time.Duration
	traced  bool
	failed  bool
}

type roundTime struct {
	d      time.Duration
	traced bool
}

// runner holds one run's state. In the traced run tr and acc are set and
// the hooks write into them; in the end-to-end run both are nil.
type runner struct {
	cfg   config
	setup func(r *runner) (env, error)
	ref   reference
	lib   *library
	tr    *tracer
	acc   *acc
	logf  func(string, ...any)

	// tracing gates the wrapper that sits on long-lived plumbing (the store
	// filesystem) to the traced rounds.
	tracing atomic.Bool

	mu       sync.Mutex
	ops      []opRecord
	checks   []deferredCheck
	failures []string
	rounds   []roundTime
	// Σ area and Σ reference area over checked results.
	area, refArea float64
	verified      int
	buildSec      float64
	setupSec      []float64
	proc          procDelta
	peakRSS       float64
	meta          meta
}

type deferredCheck struct {
	op int
	fn func() error
}

func newRunner(cfg config, ref reference, logf func(string, ...any)) *runner {
	r := &runner{cfg: cfg, ref: ref, lib: newLibrary(), logf: logf, meta: newMeta(cfg)}
	if cfg.trace {
		r.tr = newTracer()
		r.acc = newAcc()
	}
	return r
}

// record appends a finished op and returns its index.
func (r *runner) record(o opRecord) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, o)
	return len(r.ops) - 1
}

func (r *runner) fail(op int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[op].failed = true
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("op %d (%s): %v", op, r.ops[op].kind, err))
	}
}

// deferCheck registers a check of op to run after the timed window.
func (r *runner) deferCheck(op int, fn func() error) {
	r.mu.Lock()
	r.checks = append(r.checks, deferredCheck{op, fn})
	r.mu.Unlock()
}

// checkItems checks results against the reference and adds them to the
// area totals quality.area_vs_ref reports.
func (r *runner) checkItems(items []keyed) error {
	for _, it := range items {
		if err := r.ref.check(it.key, it.q); err != nil {
			return err
		}
		r.mu.Lock()
		r.area += it.q.Area
		r.refArea += r.ref[it.key].Area
		r.mu.Unlock()
	}
	return nil
}

// task is one closed-loop op. run performs it and returns the check to run
// after the window (nil for none).
type task struct {
	kind  string
	units int
	run   func(oc opCtx) (func() error, error)
}

// opCtx tells a task whether its hooks are on and which span is its op.
type opCtx struct {
	idx    int
	span   int
	traced bool
}

// closedLoop runs rounds of tasks from one caller, each round in its own
// seeded order, until the window of cfg.seconds has passed and at least
// minRounds rounds are done (or exactly cfg.rounds, when a test sets it).
// The window bounds the run's length on a slow host; the rounds are what
// the metrics take medians over. In the untraced run the set-ups setup_s
// samples are made between rounds, off the window's clock. In the traced
// run odd rounds are traced and even rounds are not, which is how
// harness.trace_overhead_ratio is measured, and no set-up comes between
// them.
func (r *runner) closedLoop(plan func(round int) []task) error {
	window := time.Duration(r.cfg.seconds * float64(time.Second))
	var elapsed time.Duration
	for round := 0; ; round++ {
		if r.cfg.rounds > 0 && round == r.cfg.rounds ||
			r.cfg.rounds <= 0 && round >= minRounds && elapsed >= window {
			break
		}
		begin := time.Now()
		traced := r.cfg.trace && round%2 == 1
		r.tracing.Store(traced)
		tasks := plan(round)
		order := newRNG(r.cfg.seed, fmt.Sprintf("%s/round%d", r.cfg.workload, round)).perm(len(tasks))
		start := time.Now()
		for _, i := range order {
			r.runTask(tasks[i], traced)
		}
		r.rounds = append(r.rounds, roundTime{time.Since(start), traced})
		elapsed += time.Since(begin)
		r.tracing.Store(false)
		if !r.cfg.trace {
			if err := r.sampleSetups(float64(elapsed) / float64(window)); err != nil {
				return err
			}
		}
	}
	r.meta.Rounds = len(r.rounds)
	return nil
}

// setUp makes one set-up of the workload and records its time.
func (r *runner) setUp() (env, error) {
	runtime.GC()
	start := time.Now()
	e, err := r.setup(r)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", r.cfg.workload, err)
	}
	r.setupSec = append(r.setupSec, time.Since(start).Seconds())
	return e, nil
}

// sampleSetups makes the set-ups due once the share done of the window has
// passed: the k-th of the setupRuns−1 after the first is due at
// k/setupRuns of the window. Each is closed at once, and the garbage it
// leaves is collected before the next round.
func (r *runner) sampleSetups(done float64) error {
	for n := len(r.setupSec); n < r.cfg.setupRuns && done*float64(r.cfg.setupRuns) >= float64(n); n++ {
		e, err := r.setUp()
		if err != nil {
			return err
		}
		e.close()
		runtime.GC()
	}
	return nil
}

func (r *runner) runTask(t task, traced bool) {
	r.mu.Lock()
	idx := len(r.ops)
	r.mu.Unlock()
	oc := opCtx{idx: idx, traced: traced}
	if traced {
		oc.span = r.tr.reserve()
	}
	t0 := r.tr.now()
	start := time.Now()
	check, err := t.run(oc)
	lat := time.Since(start)
	if traced {
		r.tr.record(oc.span, "op", 0, idx, t0, r.tr.now())
		r.acc.add("n.traced_ops", 1)
	}
	r.record(opRecord{kind: t.kind, units: t.units, latency: lat, traced: traced})
	switch {
	case err != nil:
		r.fail(idx, err)
	case check != nil:
		r.deferCheck(idx, check)
	}
}

// verify runs the deferred checks after the window; untimed.
func (r *runner) verify() {
	for _, c := range r.checks {
		if err := c.fn(); err != nil {
			r.fail(c.op, err)
		}
		r.verified++
	}
}

// result is the line the harness prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics the untraced run prints, as BENCHMARK.json names
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runWorkload sets the workload up, runs the timed window on that set-up
// with the other set-ups between its rounds, verifies, and assembles the
// result.
func runWorkload(cfg config, ref reference, logf func(string, ...any)) (*result, *meta, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if cfg.setupRuns < 1 {
		cfg.setupRuns = 1
	}
	r := newRunner(cfg, ref, logf)
	r.setup = setup
	e, err := r.setUp()
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	logf("%s: set up in %.3fs, running", cfg.workload, r.setupSec[0])

	before := snapProcess()
	if err := e.run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.proc = diffProcess(before, snapProcess())
	// The high-water mark is read before verification and the traced
	// run's extra measurements, which build instances of their own.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	r.peakRSS = rss
	// The set-ups still due: all but the first in the traced run, none in
	// an untraced run whose window ran to its end.
	if err := r.sampleSetups(1); err != nil {
		return nil, nil, err
	}
	logf("%s: window done, %d set-ups (median %.3fs)", cfg.workload, len(r.setupSec), median(r.setupSec))
	if cfg.trace {
		if err := e.layers(r); err != nil {
			return nil, nil, fmt.Errorf("%s traced measurements: %w", cfg.workload, err)
		}
	}
	r.verify()
	if cfg.spansOut != "" {
		if err := r.tr.write(cfg.spansOut); err != nil {
			return nil, nil, err
		}
	}
	return r.assemble()
}

func (r *runner) assemble() (*result, *meta, error) {
	res := &result{Attempted: len(r.ops), Metrics: map[string]metricValue{}}
	lat := make([]float64, 0, len(r.ops))
	for _, o := range r.ops {
		if o.failed {
			res.Failed++
		}
		lat = append(lat, ms(o.latency))
	}
	m := &r.meta
	m.Attempted, m.Failed, m.OK = res.Attempted, res.Failed, res.Attempted-res.Failed
	m.Verified, m.Samples, m.SetupSec = r.verified, len(lat), r.setupSec
	m.Failures = r.failures
	m.Kinds = kindStats(r.ops)
	if res.Attempted == 0 {
		return nil, m, errors.New("no op was attempted")
	}
	res.Correct = res.Failed == 0 && r.verified > 0
	m.TailMs, m.TailPct, _ = tail(lat)
	if r.cfg.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{r.layerValue(d.name), d.unit}
		}
		return res, m, nil
	}
	values := map[string]float64{
		"setup_s":          median(r.setupSec),
		"throughput_ops_s": typicalThroughput(m.Kinds),
		"latency_p50_ms":   typicalLatency(m.Kinds),
		"peak_rss_mb":      r.peakRSS,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return res, m, nil
}

// typicalThroughput is throughput_ops_s: the work units of one round over
// the sum of every op kind's median latency, that is, the rate of a round
// in which each op took its kind's median time. Every round runs each kind
// once from one caller, so a round's wall time is the sum of its ops'
// latencies; taking each term at its median keeps a stretch in which the
// shared host runs slow from moving the rate unless it covers half the
// window. In back-to-back sets of ten runs this read 13% spread on
// solve-offline where the median of the rounds' own rates read 20%.
func typicalThroughput(kinds map[string]kindStat) float64 {
	var units, sec float64
	for _, k := range kinds {
		units += float64(k.Units)
		sec += k.MedianMs / 1e3
	}
	return ratio(units, sec)
}

// typicalLatency is latency_p50_ms: the geometric mean over op kinds of
// each kind's median latency. A kind is one input, solved once per round.
// Every workload mixes kinds whose latencies differ by 10–100×; the plain
// median of such a mix is whichever kind sits in the middle, so it ignores a
// slowdown of any other kind and jumps when run-to-run noise reorders the
// kinds near the middle. Per kind, the median is steady, and the geometric
// mean moves with every kind in proportion.
func typicalLatency(kinds map[string]kindStat) float64 {
	logSum := 0.0
	for _, k := range sortedKeys(kinds) {
		logSum += math.Log(kinds[k].MedianMs)
	}
	return math.Exp(logSum / float64(len(kinds)))
}

func kindStats(ops []opRecord) map[string]kindStat {
	byKind := map[string][]float64{}
	units := map[string]int{}
	for _, o := range ops {
		byKind[o.kind] = append(byKind[o.kind], ms(o.latency))
		units[o.kind] = o.units
	}
	out := make(map[string]kindStat, len(byKind))
	for k, v := range byKind {
		out[k] = kindStat{N: len(v), Units: units[k], MedianMs: median(v)}
	}
	return out
}

// traceOverhead is the traced rounds' total time over that of their
// untraced twins: each traced round 2k+1 is paired with round 2k, which runs
// the same inputs (round-rotated inputs rotate by round/2), and an unpaired
// last round is left out.
func (r *runner) traceOverhead() float64 {
	var on, off float64
	for i := 1; i < len(r.rounds); i += 2 {
		if r.rounds[i].traced && !r.rounds[i-1].traced {
			on += r.rounds[i].d.Seconds()
			off += r.rounds[i-1].d.Seconds()
		}
	}
	return ratio(on, off)
}

// untracedRoundMean is the mean wall time of the untraced rounds.
func (r *runner) untracedRoundMean() float64 {
	var off []float64
	for _, rt := range r.rounds {
		if !rt.traced {
			off = append(off, rt.d.Seconds())
		}
	}
	return mean(off)
}

// sortedKeys is used where map iteration order would leak into output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

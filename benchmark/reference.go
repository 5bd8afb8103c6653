package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// quality is what the correctness check compares against the reference:
// the objective, the constraint violations and convergence.
type quality struct {
	Area           float64 `json:"area"`
	DelayViolation float64 `json:"delay_violation"`
	NoiseViolation float64 `json:"noise_violation"`
	PowerViolation float64 `json:"power_violation"`
	Converged      bool    `json:"converged"`
	Iterations     int     `json:"iterations"`
}

func qualityOf(r *core.Result) quality {
	return quality{
		Area: r.Area, DelayViolation: r.DelayViolation, NoiseViolation: r.NoiseViolation,
		PowerViolation: r.PowerViolation, Converged: r.Converged, Iterations: r.Iterations,
	}
}

// Tolerances of the check: the paper's 1% optimality gap on area, and a
// violation may exceed the reference's by 1% plus a thousandth of a ps/fF.
const (
	areaSlack      = 1.01
	violationSlack = 1.01
	violationAbs   = 1e-3
)

// reference maps a catalog key to the quality committed for it.
type reference map[string]quality

//go:embed testdata/reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return ref, nil
}

// check fails a result whose area exceeds the reference by more than the
// paper's 1% gap, that is infeasible beyond the reference, or that stopped
// unconverged where the reference converged.
func (ref reference) check(key string, got quality) error {
	want, ok := ref[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry (regenerate with write-reference)", key)
	}
	if got.Area > areaSlack*want.Area {
		return fmt.Errorf("%s: area %g exceeds %g × reference %g", key, got.Area, areaSlack, want.Area)
	}
	for _, v := range [...]struct {
		name      string
		got, want float64
	}{
		{"delay", got.DelayViolation, want.DelayViolation},
		{"noise", got.NoiseViolation, want.NoiseViolation},
		{"power", got.PowerViolation, want.PowerViolation},
	} {
		if v.got > max(v.want, 0)*violationSlack+violationAbs {
			return fmt.Errorf("%s: %s violation %g beyond reference %g", key, v.name, v.got, v.want)
		}
	}
	if want.Converged && !got.Converged {
		return fmt.Errorf("%s: did not converge (reference converged in %d iterations)", key, want.Iterations)
	}
	return nil
}

// writeReference stores ref with one key per line, sorted, so a regenerated
// file diffs entry by entry.
func writeReference(path string, ref reference) error {
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vb, err := json.Marshal(ref[k])
		if err != nil {
			return err
		}
		b.Write(kb)
		b.WriteString(": ")
		b.Write(vb)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// keyed is one result's quality under its reference key.
type keyed struct {
	key string
	q   quality
}

// outcome is what one op produced, in the form the checks need: the
// canonical JSON of its result (for the bitwise comparison of a service
// response with the library) and each solve's quality under its key.
type outcome struct {
	canon []byte
	items []keyed
}

func solveOutcome(key string, r *core.Result) (*outcome, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return &outcome{canon: b, items: []keyed{{key, qualityOf(r)}}}, nil
}

func sweepItems(circuit string, a axes, cold bool, r *sweep.Result) ([]keyed, error) {
	items := make([]keyed, 0, len(r.Cells))
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Result == nil {
			return nil, fmt.Errorf("sweep cell (%d,%d) has no result", c.Row, c.Col)
		}
		items = append(items, keyed{sweepCellKey(circuit, a, cold, c.Row, c.Col), qualityOf(c.Result)})
	}
	return items, nil
}

// sweepOutcome zeroes the per-cell wall clocks (the only field that is not
// a function of the inputs) before taking the canonical form.
func sweepOutcome(circuit string, a axes, cold bool, r *sweep.Result) (*outcome, error) {
	items, err := sweepItems(circuit, a, cold, r)
	if err != nil {
		return nil, err
	}
	for i := range r.Cells {
		r.Cells[i].SolveSec = 0
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return &outcome{canon: b, items: items}, nil
}

func mcItems(circuit string, seed uint64, r *variation.MCResult) ([]keyed, error) {
	items := make([]keyed, 0, len(r.Samples))
	for _, s := range r.Samples {
		if s.Result == nil {
			return nil, fmt.Errorf("sample %d has no result", s.Index)
		}
		items = append(items, keyed{mcSampleKey(circuit, seed, s.Index), qualityOf(s.Result)})
	}
	return items, nil
}

func mcOutcome(circuit string, seed uint64, r *variation.MCResult) (*outcome, error) {
	items, err := mcItems(circuit, seed, r)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return &outcome{canon: b, items: items}, nil
}

func cornerItems(circuit string, maxIter int, r *variation.CornerReport) []keyed {
	items := []keyed{{cornerKey(circuit, maxIter, "nominal"), qualityOf(r.Nominal)}}
	for _, c := range r.Cells {
		items = append(items, keyed{cornerKey(circuit, maxIter, c.Corner.Name), qualityOf(c.Result)})
	}
	return items
}

// library computes, in process and through the public entry points, the
// result the service must return for the same inputs. Instances and
// outcomes are memoized: the catalog repeats a handful of distinct inputs.
type library struct {
	mu    sync.Mutex
	insts map[string]*libInstance
	memo  map[string]*outcome
}

type libInstance struct {
	inst   *bench.Instance
	bounds bench.Bounds
}

func newLibrary() *library {
	return &library{insts: map[string]*libInstance{}, memo: map[string]*outcome{}}
}

// buildCircuit builds a catalog circuit with its self-calibrated bounds.
func buildCircuit(name string) (*bench.Instance, bench.Bounds, error) {
	if name == gridCircuit {
		return bench.GridInstance(32, 24, true)
	}
	spec, ok := bench.SpecByName(name)
	if !ok {
		return nil, bench.Bounds{}, fmt.Errorf("unknown circuit %q", name)
	}
	inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
	if err != nil {
		return nil, bench.Bounds{}, err
	}
	return inst, bench.DeriveBounds(inst), nil
}

func (l *library) instance(name string) (*libInstance, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if li, ok := l.insts[name]; ok {
		return li, nil
	}
	inst, b, err := buildCircuit(name)
	if err != nil {
		return nil, err
	}
	li := &libInstance{inst, b}
	l.insts[name] = li
	return li, nil
}

func (l *library) memoized(key string, compute func() (*outcome, error)) (*outcome, error) {
	l.mu.Lock()
	o, ok := l.memo[key]
	l.mu.Unlock()
	if ok {
		return o, nil
	}
	o, err := compute()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.memo[key] = o
	l.mu.Unlock()
	return o, nil
}

// solveWith is the cold (or warm) solve exactly as the service runs it:
// default options at the given a0, seeded through RunFromDual.
func solveWith(li *libInstance, a0 float64, maxIter int, warm bool, seed []float64, dual *core.DualState) (*core.Result, *core.DualState, error) {
	ev, err := li.inst.Replica()
	if err != nil {
		return nil, nil, err
	}
	opt := core.DefaultOptions(a0, li.bounds.NoiseBound, li.bounds.PowerBound)
	if maxIter > 0 {
		opt.MaxIterations = maxIter
	}
	opt.WarmStart = warm
	sol, err := core.NewSolver(ev, opt)
	if err != nil {
		return nil, nil, err
	}
	defer sol.Close()
	if seed == nil {
		seed = li.inst.Eval.X
	}
	res, err := sol.RunFromDual(seed, dual)
	if err != nil {
		return nil, nil, err
	}
	return res, sol.DualState(), nil
}

func (l *library) solve(e solveEntry) (*outcome, error) {
	return l.memoized(e.key(), func() (*outcome, error) {
		li, err := l.instance(e.Circuit)
		if err != nil {
			return nil, err
		}
		res, _, err := solveWith(li, li.bounds.A0*e.Scale, e.MaxIter, false, nil, nil)
		if err != nil {
			return nil, err
		}
		return solveOutcome(e.key(), res)
	})
}

// chain is a cold solve at s1 whose sizes and multipliers warm-start a
// solve at s2: the service's save_as / warm_from pair.
func (l *library) chain(circuit string, s1, s2 float64) (*outcome, error) {
	key := chainKey(circuit, s1, s2)
	return l.memoized(key, func() (*outcome, error) {
		li, err := l.instance(circuit)
		if err != nil {
			return nil, err
		}
		first, dual, err := solveWith(li, li.bounds.A0*s1, 0, false, nil, nil)
		if err != nil {
			return nil, err
		}
		res, _, err := solveWith(li, li.bounds.A0*s2, 0, true, first.X, dual)
		if err != nil {
			return nil, err
		}
		return solveOutcome(key, res)
	})
}

func (l *library) sweep(circuit string, a axes, cold bool) (*outcome, error) {
	return l.memoized(fmt.Sprintf("sweep/%s/%s/%v/%v/%v", circuit, a.Name, a.Delay, a.Noise, cold), func() (*outcome, error) {
		li, err := l.instance(circuit)
		if err != nil {
			return nil, err
		}
		res, err := sweep.Run(li.inst, sweep.Options{
			DelayScale: a.Delay, NoiseScale: a.Noise, Bounds: &li.bounds, Cold: cold,
		})
		if err != nil {
			return nil, err
		}
		return sweepOutcome(circuit, a, cold, res)
	})
}

func (l *library) montecarlo(circuit string, seed uint64, samples int) (*outcome, error) {
	return l.memoized(fmt.Sprintf("mc/%s/%d/%d", circuit, seed, samples), func() (*outcome, error) {
		li, err := l.instance(circuit)
		if err != nil {
			return nil, err
		}
		res, err := variation.MonteCarlo(li.inst, variation.MCOptions{
			Samples: samples, Seed: seed, Sigmas: mcSigmas, Bounds: &li.bounds,
		})
		if err != nil {
			return nil, err
		}
		return mcOutcome(circuit, seed, res)
	})
}

func (l *library) corners(circuit string, maxIter int) (*outcome, error) {
	return l.memoized(fmt.Sprintf("corners/%s/%d", circuit, maxIter), func() (*outcome, error) {
		li, err := l.instance(circuit)
		if err != nil {
			return nil, err
		}
		res, err := variation.CornerSweep(li.inst, variation.CornerOptions{MaxIterations: maxIter})
		if err != nil {
			return nil, err
		}
		return &outcome{items: cornerItems(circuit, maxIter, res)}, nil
	})
}

// catalogReference computes the reference entry of every catalog input,
// across all the workloads.
func catalogReference(logf func(string, ...any)) (reference, error) {
	l := newLibrary()
	ref := reference{}
	add := func(o *outcome, err error) error {
		if err != nil {
			return err
		}
		for _, it := range o.items {
			ref[it.key] = it.q
		}
		return nil
	}
	var steps []func() error
	for _, e := range solveOfflineCatalog {
		steps = append(steps, func() error { return add(l.solve(e)) })
	}
	for _, c := range serviceFull.FreshAll {
		for _, s := range serviceFull.Scales {
			steps = append(steps, func() error { return add(l.solve(solveEntry{c, s, 0})) })
		}
	}
	for _, c := range append([]string{serviceFull.FreshMid}, serviceFull.Repeats...) {
		steps = append(steps, func() error { return add(l.solve(solveEntry{c, serviceFull.ScaleMid, 0})) })
	}
	for _, c := range serviceFull.Chains {
		steps = append(steps, func() error {
			return add(l.chain(c, serviceFull.ChainScales[0], serviceFull.ChainScales[1]))
		})
	}
	for _, cold := range []bool{false, true} {
		steps = append(steps, func() error { return add(l.sweep(exploreFull.SweepCircuit, exploreFull.Grid, cold)) })
	}
	steps = append(steps, func() error { return add(l.sweep("c432", serviceFull.Sweep, false)) })
	steps = append(steps, func() error { return add(l.montecarlo(exploreFull.MCCircuit, mcSeed, exploreFull.MCSamples)) })
	// The warm-up circuit's corners are the test-sized catalog's.
	for _, c := range []string{exploreFull.CornerCircuit, exploreFull.WarmupCorners} {
		steps = append(steps, func() error { return add(l.corners(c, exploreFull.CornerMaxIter)) })
	}
	for i, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
		logf("reference: step %d/%d done (%d entries)", i+1, len(steps), len(ref))
	}
	return ref, nil
}

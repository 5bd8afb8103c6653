package main

import (
	"fmt"
	"time"

	"repro/internal/variation"
)

// The committed catalog: every input a run solves. Each workload repeats
// one round of its catalog, shuffled by the seed, until the window is over,
// so every op kind is one input solved many times and its median latency is
// taken over the whole window. A seed only orders the rounds; it never picks
// different inputs, because the solver's iteration count is chaotic in its
// bounds (c880 takes 900 iterations at a0 ×1.08 and 46 at ×1.10), and a seed
// that changed the work would change every timing with it.
// testdata/reference.json holds the reference quality of every entry.

// Workload names, in the order `run -workload all` executes them.
const (
	wSolveOffline = "solve-offline"
	wExploreBatch = "explore-batch"
	wServiceMix   = "service-mix"
)

var workloadNames = []string{wSolveOffline, wExploreBatch, wServiceMix}

// minRounds is the fewest rounds a run makes, however slow the host: the
// per-kind medians need a few samples, and the traced run pairs each traced
// round with the untraced one before it.
const minRounds = 4

// solveEntry is one cold OGWS solve: a circuit at a multiple of its
// self-calibrated delay bound A0, with an optional iteration cap.
type solveEntry struct {
	Circuit string
	Scale   float64
	MaxIter int
}

func (e solveEntry) key() string {
	return fmt.Sprintf("solve/%s/a%g/mi%d", e.Circuit, e.Scale, e.MaxIter)
}

func (e solveEntry) kind() string {
	return fmt.Sprintf("%s@%g", e.Circuit, e.Scale)
}

// gridCircuit is the dense-coupling mesh: the cutover/full-pass path of the
// incremental evaluator, where c880 exercises the dirty-cone path.
const gridCircuit = "grid32x24"

// solveOfflineCatalog is one round of solve-offline, 1.2–1.9 s at
// Workers=1 on the two-core reference box. The entries that take a second
// or more (c5315 at ×1.00, c7552 at ×1.05, the uncapped mesh) are left out
// or capped, so a 36-second window holds twenty rounds or more and every
// entry's median is over that many solves.
var solveOfflineCatalog = []solveEntry{
	{"c432", 1.00, 0}, {"c432", 1.05, 0}, {"c432", 1.10, 0},
	{"c1908", 1.00, 0}, {"c1908", 1.05, 0}, {"c1908", 1.10, 0},
	{"c3540", 1.05, 0}, {"c3540", 1.10, 0},
	{"c5315", 1.10, 0},
	{"c7552", 1.10, 0},
	{"c880", 1.09, 0}, {"c880", 1.10, 0},
	{gridCircuit, 1, 40},
}

// axes is a named bounds grid. Reference keys name the grid, and a prefix of
// both axes solves to the same cells (a warm cell's seeding chain stays
// inside the prefix), which is what lets the test-sized catalog reuse them.
type axes struct {
	Name         string
	Delay, Noise []float64
}

var (
	grid4x4 = axes{"g4x4", []float64{1, 1.04, 1.08, 1.12}, []float64{0.8, 0.9, 1, 1.1}}
	grid2x3 = axes{"g2x3", []float64{1, 1.05}, []float64{0.9, 1, 1.1}}
)

func (a axes) prefix(rows, cols int) axes {
	return axes{a.Name, a.Delay[:rows], a.Noise[:cols]}
}

func (a axes) cells() int { return len(a.Delay) * len(a.Noise) }

func sweepCellKey(circuit string, a axes, cold bool, row, col int) string {
	mode := "warm"
	if cold {
		mode = "cold"
	}
	return fmt.Sprintf("sweep/%s/%s/%s/r%dc%d", circuit, a.Name, mode, row, col)
}

// warmupSamples is the sample count of every set-up's warm-up Monte-Carlo
// op.
const warmupSamples = 2

// mcSigmas are the lognormal spreads of every Monte-Carlo op, and mcSeed its
// sampler seed: every round solves the same samples, so the Monte-Carlo
// kind's median is over one input like every other kind's.
var mcSigmas = variation.Sigmas{R: 0.05, C: 0.05, Threshold: 0.05}

const mcSeed = 7

func mcSampleKey(circuit string, seed uint64, i int) string {
	return fmt.Sprintf("mc/%s/seed%d/i%d", circuit, seed, i)
}

func cornerKey(circuit string, maxIter int, name string) string {
	return fmt.Sprintf("corners/%s/mi%d/%s", circuit, maxIter, name)
}

func chainKey(circuit string, s1, s2 float64) string {
	return fmt.Sprintf("chain/%s/a%g-a%g", circuit, s1, s2)
}

// exploreCatalog is one round of explore-batch, 1.0–1.3 s on the
// reference box: a warm and a cold 4×4 sweep on c1908, the five process corners of
// c1908 warm-started from nominal (capped at 60 iterations: uncapped, the ss
// and fs corners run 1000 and take 10 s), and 8 Monte-Carlo samples on
// c432. The sweeps use c1908 rather than c432 because a warm 4×4 grid of
// c432 solves in 14 ms, below what a shared box times steadily, and because
// c1908 is where the sweep's 1→2-worker scaling differs most between cold
// and warm grids. The sweeps fan their independent cells out over all
// cores; the corner solves and the lockstep Monte-Carlo batch run at one
// solver thread, because two threads that meet at a barrier every pass
// wait on whichever vCPU the shared host has slowed: at all cores their
// per-run medians spread 15–22%, against 6% for the cold sweep's cells.
type exploreCatalog struct {
	SweepCircuit  string
	Grid          axes
	CornerCircuit string
	CornerMaxIter int
	MCCircuit     string
	MCSamples     int
	// WarmupCorners is the circuit of the warm-up corner sweep, kept small
	// because set-up runs setupRuns times per run.
	WarmupCorners string
}

var exploreFull = exploreCatalog{
	SweepCircuit: "c1908", Grid: grid4x4,
	CornerCircuit: "c1908", CornerMaxIter: 60,
	MCCircuit: "c432", MCSamples: 8,
	WarmupCorners: "c432",
}

// serviceCatalog is one round of service-mix, 0.5–0.6 s on the reference
// box: every request kind once, each kind one input.
type serviceCatalog struct {
	// Fresh are the no_dedup solves: every scale of Scales on each circuit
	// of FreshAll, and ScaleMid alone on FreshMid.
	FreshAll []string
	FreshMid string
	Scales   []float64
	ScaleMid float64
	// Repeats are re-solved at ScaleMid and answered by dedup; Chains are
	// save_as / warm_from pairs at ChainScales (the saved solve's a0
	// multiple, then the warm-started one's).
	Repeats, Chains []string
	ChainScales     [2]float64
	Sweep           axes
	MCSamples       int
	// SLO is the latency limit harness.slo_miss_ratio counts against.
	SLO time.Duration
}

var serviceFull = serviceCatalog{
	FreshAll:    []string{"c432", "c1908"},
	FreshMid:    "c3540",
	Scales:      []float64{1.00, 1.05, 1.10},
	ScaleMid:    1.05,
	Repeats:     []string{"c432", "c1908"},
	Chains:      []string{"c432", "c1908"},
	ChainScales: [2]float64{1.05, 1.00},
	Sweep:       grid2x3,
	MCSamples:   8,
	SLO:         time.Second,
}

// rng is splitmix64: the harness's only randomness, a pure function of the
// run seed and a stream label.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = (r.s ^ uint64(c)) * 0x100000001b3
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform on [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm is a Fisher–Yates permutation of 0..n−1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

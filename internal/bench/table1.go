package bench

import (
	"math"
	"time"

	"repro/internal/core"
)

// Table1Row holds one row of the paper's Table 1: initial and final noise
// (pF), delay (ps), power (mW), and area (µm²), plus iteration count,
// wall time, and memory.
type Table1Row struct {
	Name              string
	Gates, Wires, Tot int

	InitNoisePF, FinNoisePF float64
	InitDelayPs, FinDelayPs float64
	InitPowerMW, FinPowerMW float64
	InitAreaUM2, FinAreaUM2 float64

	Iterations int
	TimeSec    float64
	MemKB      float64
	Converged  bool
	Gap        float64
	// SecPerIter and MemMB feed Figure 10 directly.
	SecPerIter float64
	MemMB      float64
}

// RunOptions configures a Table-1 run.
type RunOptions struct {
	// MaxIterations caps the OGWS outer loop (0 = solver default).
	MaxIterations int
	// Epsilon is the duality-gap / feasibility precision (0 = 1%, as in
	// the paper).
	Epsilon float64
	// Workers is the solver's parallel width (see core.Options.Workers):
	// 0 uses every core, 1 runs serially. Results are bit-identical for
	// every setting.
	Workers int
	// Bounds overrides the self-calibrated DeriveBounds when non-nil.
	Bounds *Bounds
}

// RunRow builds the instance for one spec with the default pipeline and
// runs the full two-stage flow, returning the Table-1 row.
func RunRow(spec Spec, opt RunOptions) (*Table1Row, error) {
	inst, err := BuildInstance(spec, PipelineOptions{})
	if err != nil {
		return nil, err
	}
	return RunInstance(inst, opt)
}

// RunInstance runs stage 2 (OGWS sizing) on a prebuilt instance, starting
// at the lower bounds (the paper's S1).
func RunInstance(inst *Instance, opt RunOptions) (*Table1Row, error) {
	b := DeriveBounds(inst)
	if opt.Bounds != nil {
		b = *opt.Bounds
	}
	sopt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	sopt.MaxIterations, sopt.Epsilon = opt.MaxIterations, opt.Epsilon
	sopt.Workers = opt.Workers

	start := time.Now()
	sol, err := core.NewSolver(inst.Eval, sopt)
	if err != nil {
		return nil, err
	}
	defer sol.Close()
	res, err := sol.Run()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()

	p := inst.Tech
	row := &Table1Row{
		Name:  inst.Spec.Name,
		Gates: inst.Spec.Gates, Wires: inst.Spec.Wires, Tot: inst.Spec.Components(),
		InitNoisePF: inst.Init.NoiseLinFF / 1000, FinNoisePF: res.NoiseLinFF / 1000,
		InitDelayPs: inst.Init.DelayPs, FinDelayPs: res.DelayPs,
		InitPowerMW: p.Power(inst.Init.PowerCapFF), FinPowerMW: p.Power(res.PowerCapFF),
		InitAreaUM2: inst.Init.Area, FinAreaUM2: res.Area,
		Iterations: res.Iterations,
		TimeSec:    elapsed,
		MemKB:      float64(res.MemoryBytes) / 1024,
		MemMB:      float64(res.MemoryBytes) / (1024 * 1024),
		Converged:  res.Converged,
		Gap:        res.Gap,
	}
	if res.Iterations > 0 {
		row.SecPerIter = elapsed / float64(res.Iterations)
	}
	return row, nil
}

// Improvements returns the average percentage improvements
// (Init−Fin)/Init·100 across rows for noise, delay, power, and area — the
// paper's "Impr(%)" summary line (89.67%, 5.3%, 86.82%, 87.90%). Each
// metric averages only over the rows where it is defined: a zero or
// non-finite initial value — an uncoupled circuit has zero initial
// noise — has no relative improvement, and a non-finite final value has
// no defined one either; folding any of them in would poison the whole
// summary with NaN/Inf. A metric with no defined rows reports 0.
func Improvements(rows []*Table1Row) (noise, delay, power, area float64) {
	var sums [4]float64
	var counts [4]int
	add := func(m int, init, fin float64) {
		if init == 0 || math.IsNaN(init) || math.IsInf(init, 0) ||
			math.IsNaN(fin) || math.IsInf(fin, 0) {
			return
		}
		sums[m] += (init - fin) / init
		counts[m]++
	}
	for _, r := range rows {
		add(0, r.InitNoisePF, r.FinNoisePF)
		add(1, r.InitDelayPs, r.FinDelayPs)
		add(2, r.InitPowerMW, r.FinPowerMW)
		add(3, r.InitAreaUM2, r.FinAreaUM2)
	}
	avg := func(m int) float64 {
		if counts[m] == 0 {
			return 0
		}
		return 100 * sums[m] / float64(counts[m])
	}
	return avg(0), avg(1), avg(2), avg(3)
}

// Figure10Point is one sample of Figure 10: memory (a) and runtime per
// iteration (b) versus circuit size.
type Figure10Point struct {
	Name       string
	Tot        int
	MemMB      float64
	SecPerIter float64
}

// Figure10 extracts both series from Table-1 rows, sorted by circuit size
// as in the paper's plots.
func Figure10(rows []*Table1Row) []Figure10Point {
	pts := make([]Figure10Point, len(rows))
	for i, r := range rows {
		pts[i] = Figure10Point{Name: r.Name, Tot: r.Tot, MemMB: r.MemMB, SecPerIter: r.SecPerIter}
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[j].Tot < pts[i].Tot {
				pts[i], pts[j] = pts[j], pts[i]
			}
		}
	}
	return pts
}

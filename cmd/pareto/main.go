// Command pareto sweeps a bounds grid over one or more circuits — one
// bench.Instance per circuit, warm-started grid cells via internal/sweep —
// and emits the solved grid plus its Pareto frontier over
// (delay, noise, power) as JSON.
//
// Usage:
//
//	pareto [-circuits c432,c880] [-delay 0.95,1,1.05] [-noise 0.6,0.8,1,1.3]
//	       [-maxiter N] [-epsilon 0.01] [-cold] [-s1]
//	       [-sweep-workers 0] [-out grid.json]
//	       [-corners] [-montecarlo -samples K -seed S]
//
// -corners replaces the bounds grid with the standard five-corner
// process enumeration (one variation.CornerReport per circuit);
// -montecarlo replaces it with a seeded Monte-Carlo yield run (one
// variation.MCResult per circuit, same seed → byte-identical JSON).
//
// The delay axis scales the derived arrival bound A0; the noise axis
// scales the variable part of the crosstalk bound X_B. Cells solve
// warm-started from their grid neighbours by default; -cold solves every
// cell independently from the initial sizes (same results with -s1, more
// work).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/sweep"
	"repro/internal/variation"
)

func parseAxis(name, s string) []float64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	axis := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			log.Fatalf("bad %s factor %q: %v", name, p, err)
		}
		axis = append(axis, v)
	}
	return axis
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pareto: ")
	circuits := flag.String("circuits", "c432", "comma-separated ISCAS85 circuit names (benchgen -list shows all ten)")
	delay := flag.String("delay", "1", "comma-separated delay-axis scale factors, one grid row each (unitless multipliers of the derived arrival bound A0 in ps)")
	noise := flag.String("noise", "0.6,0.8,1,1.3", "comma-separated noise-axis scale factors, one grid column each (unitless multipliers of the variable part of the derived crosstalk bound X_B in fF)")
	maxIter := flag.Int("maxiter", 0, "cap on OGWS iterations per cell (0 = solver default, 1000)")
	epsilon := flag.Float64("epsilon", 0, "relative duality-gap precision, unitless (0 = the paper's 1%)")
	cold := flag.Bool("cold", false, "solve every cell independently instead of warm-starting from neighbours")
	s1 := flag.Bool("s1", false, "paper-faithful S1 start at the lower bounds and dual restart per cell (results independent of warm-start seeding)")
	sweepWorkers := flag.Int("sweep-workers", 0, "grid rows solved concurrently (0 = all cores; results bit-identical at every width)")
	out := flag.String("out", "", "output path for the JSON grid (default: stdout)")
	corners := flag.Bool("corners", false, "enumerate the standard process corners instead of sweeping the bounds grid")
	montecarlo := flag.Bool("montecarlo", false, "Monte-Carlo yield analysis instead of the bounds grid")
	samples := flag.Int("samples", 32, "Monte-Carlo sample count (with -montecarlo)")
	seed := flag.Uint64("seed", 1, "Monte-Carlo sampler seed; same seed → byte-identical JSON")
	sigmaR := flag.Float64("sigma-r", 0.05, "relative sigma of the wire-resistance perturbation (with -montecarlo)")
	sigmaC := flag.Float64("sigma-c", 0.05, "relative sigma of the capacitance perturbation")
	sigmaVT := flag.Float64("sigma-vt", 0.08, "relative sigma of the threshold (intrinsic-delay) perturbation")
	flag.Parse()
	if *corners && *montecarlo {
		log.Fatal("-corners and -montecarlo are mutually exclusive")
	}

	opt := sweep.Options{
		DelayScale:    parseAxis("delay", *delay),
		NoiseScale:    parseAxis("noise", *noise),
		MaxIterations: *maxIter,
		Epsilon:       *epsilon,
		SweepWorkers:  *sweepWorkers,
		Cold:          *cold,
		ColdLRS:       *s1,
		PrimalOnly:    *s1, // S1 mode exists to make results seed-independent
	}
	var results any
	if *corners || *montecarlo {
		// Variation modes: one report per circuit instead of a grid. The
		// key field names the circuit so the JSON stays self-describing.
		type cornersOut struct {
			Circuit string                  `json:"circuit"`
			Report  *variation.CornerReport `json:"report"`
		}
		type mcOut struct {
			Circuit string              `json:"circuit"`
			Result  *variation.MCResult `json:"result"`
		}
		var reports []any
		for _, name := range strings.Split(*circuits, ",") {
			spec, ok := bench.SpecByName(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown circuit %q", name)
			}
			inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
			if err != nil {
				log.Fatalf("%s: %v", spec.Name, err)
			}
			if *corners {
				rep, err := variation.CornerSweep(inst, variation.CornerOptions{
					MaxIterations: *maxIter, Epsilon: *epsilon,
					Cold: *cold, ColdLRS: *s1, PrimalOnly: *s1,
				})
				if err != nil {
					log.Fatalf("%s: %v", spec.Name, err)
				}
				fmt.Fprintf(os.Stderr, "%s done: %d corners, delay spread %.4f..%.4f ps\n",
					spec.Name, len(rep.Cells), rep.Delay.Min, rep.Delay.Max)
				reports = append(reports, cornersOut{Circuit: spec.Name, Report: rep})
				continue
			}
			res, err := variation.MonteCarlo(inst, variation.MCOptions{
				Samples: *samples, Seed: *seed,
				Sigmas:        variation.Sigmas{R: *sigmaR, C: *sigmaC, Threshold: *sigmaVT},
				MaxIterations: *maxIter, Epsilon: *epsilon,
			})
			if err != nil {
				log.Fatalf("%s: %v", spec.Name, err)
			}
			fmt.Fprintf(os.Stderr, "%s done: %d samples, yield %.3f\n",
				spec.Name, len(res.Samples), res.Yield)
			reports = append(reports, mcOut{Circuit: spec.Name, Result: res})
		}
		results = reports
	} else {
		var grids []*sweep.Result
		for _, name := range strings.Split(*circuits, ",") {
			spec, ok := bench.SpecByName(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown circuit %q", name)
			}
			res, err := sweep.RunSpec(spec, bench.PipelineOptions{}, opt)
			if err != nil {
				log.Fatalf("%s: %v", spec.Name, err)
			}
			cells := 0.0
			for i := range res.Cells {
				cells += res.Cells[i].SolveSec
			}
			fmt.Fprintf(os.Stderr, "%s done: %d cells, %d on the frontier, %.2fs solve time\n",
				res.Circuit, len(res.Cells), len(res.Frontier), cells)
			grids = append(grids, res)
		}
		results = grids
	}

	data, err := json.MarshalIndent(results, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

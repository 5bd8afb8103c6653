// Command table1 regenerates the paper's Table 1: initial versus final
// noise, delay, power, and area for the ten ISCAS85-class circuits, with
// iteration counts, runtime, and memory.
//
// Usage:
//
//	table1 [-circuits c432,c880] [-maxiter N] [-epsilon 0.01] [-short]
//	       [-corners] [-montecarlo -samples K -seed S]
//
// -corners replaces the nominal run with the standard five-corner
// process enumeration (tt/ff/ss/fs/sf), each corner warm-started from
// the nominal solve, and prints one row per corner plus the cross-corner
// delay spread. -montecarlo sizes K seeded perturbed replicas per
// circuit and prints the delay/area distributions and the
// delay-constraint yield (same seed → identical table, byte for byte).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/report"
	"repro/internal/variation"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("table1: ")
	circuits := flag.String("circuits", "", "comma-separated ISCAS85 circuit names (default: all ten)")
	maxIter := flag.Int("maxiter", 0, "cap on OGWS iterations (0 = solver default, 1000)")
	epsilon := flag.Float64("epsilon", 0, "relative duality-gap precision, unitless (0 = the paper's 1%)")
	short := flag.Bool("short", false, "run only the circuits up to ~5k components")
	parallel := flag.Int("parallel", 1, "circuits solved concurrently (0 = all cores; rows bit-identical at every width)")
	corners := flag.Bool("corners", false, "enumerate the standard process corners per circuit instead of the nominal run")
	montecarlo := flag.Bool("montecarlo", false, "Monte-Carlo yield analysis per circuit instead of the nominal run")
	samples := flag.Int("samples", 32, "Monte-Carlo sample count (with -montecarlo)")
	seed := flag.Uint64("seed", 1, "Monte-Carlo sampler seed; same seed → byte-identical sample set")
	sigmaR := flag.Float64("sigma-r", 0.05, "relative sigma of the wire-resistance perturbation (corners/Monte-Carlo)")
	sigmaC := flag.Float64("sigma-c", 0.05, "relative sigma of the capacitance perturbation")
	sigmaVT := flag.Float64("sigma-vt", 0.08, "relative sigma of the threshold (intrinsic-delay) perturbation")
	flag.Parse()

	var specs []bench.Spec
	switch {
	case *circuits != "":
		for _, name := range strings.Split(*circuits, ",") {
			s, ok := bench.SpecByName(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown circuit %q", name)
			}
			specs = append(specs, s)
		}
	case *short:
		for _, s := range bench.ISCAS85 {
			if s.Components() <= 5000 {
				specs = append(specs, s)
			}
		}
	default:
		specs = bench.ISCAS85
	}

	if *corners || *montecarlo {
		if *corners && *montecarlo {
			log.Fatal("-corners and -montecarlo are mutually exclusive")
		}
		sg := variation.Sigmas{R: *sigmaR, C: *sigmaC, Threshold: *sigmaVT}
		if err := runVariation(specs, *corners, sg, *samples, *seed, *maxIter, *epsilon); err != nil {
			log.Fatal(err)
		}
		return
	}

	opt := bench.RunOptions{MaxIterations: *maxIter, Epsilon: *epsilon}
	var rows []*bench.Table1Row
	if *parallel == 1 {
		for _, s := range specs {
			row, err := bench.RunRow(s, opt)
			if err != nil {
				log.Fatalf("%s: %v", s.Name, err)
			}
			fmt.Fprintf(os.Stderr, "%s done: %d iterations, %.2fs, converged=%v\n",
				row.Name, row.Iterations, row.TimeSec, row.Converged)
			rows = append(rows, row)
		}
	} else {
		var err error
		rows, err = bench.RunTable1Parallel(specs, opt, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range rows {
			fmt.Fprintf(os.Stderr, "%s done: %d iterations, %.2fs, converged=%v\n",
				row.Name, row.Iterations, row.TimeSec, row.Converged)
		}
	}
	if err := report.Table1(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
}

// runVariation prints the Table-1-style variation report: one corner
// table or one Monte-Carlo yield table per circuit.
func runVariation(specs []bench.Spec, corners bool, sg variation.Sigmas, samples int, seed uint64, maxIter int, epsilon float64) error {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	for _, spec := range specs {
		inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		if corners {
			rep, err := variation.CornerSweep(inst, variation.CornerOptions{
				MaxIterations: maxIter, Epsilon: epsilon,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			fmt.Fprintf(tw, "%s\tcorner\tdelay(ps)\tnoise(ff)\tarea\titer\tconverged\n", spec.Name)
			fmt.Fprintf(tw, "\tnominal\t%.4f\t%.4f\t%.4f\t%d\t%v\n",
				rep.Nominal.DelayPs, rep.Nominal.NoiseLinFF, rep.Nominal.Area,
				rep.Nominal.Iterations, rep.Nominal.Converged)
			for _, c := range rep.Cells {
				fmt.Fprintf(tw, "\t%s\t%.4f\t%.4f\t%.4f\t%d\t%v\n",
					c.Corner.Name, c.Result.DelayPs, c.Result.NoiseLinFF, c.Result.Area,
					c.Result.Iterations, c.Result.Converged)
			}
			fmt.Fprintf(tw, "\tspread\tmean %.4f\tstd %.4f\tmin %.4f\tmax %.4f\t\n",
				rep.Delay.Mean, rep.Delay.Std, rep.Delay.Min, rep.Delay.Max)
			continue
		}
		res, err := variation.MonteCarlo(inst, variation.MCOptions{
			Samples: samples, Seed: seed, Sigmas: sg,
			MaxIterations: maxIter, Epsilon: epsilon,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		fmt.Fprintf(tw, "%s\tsamples %d\tseed %d\tyield %.3f\t(a0 %.2f ps)\n",
			spec.Name, len(res.Samples), seed, res.Yield, res.A0)
		for _, d := range []struct {
			name string
			dist variation.Dist
		}{{"delay(ps)", res.Delay}, {"area", res.Area}, {"noise(ff)", res.Noise}} {
			fmt.Fprintf(tw, "\t%s\tmean %.4f\tstd %.4f\tmin %.4f\tmedian %.4f\tp90 %.4f\tmax %.4f\n",
				d.name, d.dist.Mean, d.dist.Std, d.dist.Min, d.dist.Median, d.dist.P90, d.dist.Max)
		}
	}
	return nil
}

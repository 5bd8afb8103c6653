// Command ogws runs the paper's full two-stage flow — WOSS wire ordering
// followed by OGWS Lagrangian-relaxation sizing — on a single circuit and
// prints the before/after metrics.
//
// Usage:
//
//	ogws -synthetic c432
//	ogws -bench circuit.bench [-seed 7]
//
// Bounds default to the self-calibrated experiment settings (delay held at
// the initial value, noise and power 25% above their minimum-size floors);
// override with -a0/-noise/-power.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogws: ")
	synthetic := flag.String("synthetic", "", "synthetic ISCAS85-class circuit name (e.g. c432)")
	benchFile := flag.String("bench", "", "path to an ISCAS85 .bench netlist")
	seed := flag.Int64("seed", 1, "geometry seed for parsed netlists (wire lengths, channel shuffles)")
	a0 := flag.Float64("a0", 0, "arrival-time bound A0 in ps (0 = self-calibrated: the initial delay)")
	noise := flag.Float64("noise", 0, "total crosstalk bound X_B in fF (0 = self-calibrated: 25% above the minimum-size floor)")
	power := flag.Float64("power", 0, "power bound P' in fF, capacitance equivalent P_B/V²f (0 = self-calibrated: 25% above the floor)")
	flag.Parse()

	var (
		inst *repro.Instance
		err  error
	)
	switch {
	case *synthetic != "" && *benchFile != "":
		log.Fatal("choose one of -synthetic or -bench")
	case *synthetic != "":
		inst, err = repro.Synthetic(*synthetic)
	case *benchFile != "":
		f, ferr := os.Open(*benchFile)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		inst, err = repro.FromBench(*benchFile, f, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}

	bounds := inst.DefaultBounds()
	if *a0 > 0 {
		bounds.A0 = *a0
	}
	if *noise > 0 {
		bounds.NoiseBound = *noise
	}
	if *power > 0 {
		bounds.PowerBound = *power
	}

	fmt.Printf("circuit %s: %d gates, %d wires\n", inst.Name(), inst.Gates(), inst.Wires())
	fmt.Printf("bounds: A0=%.4g ps, X_B=%.4g fF, P'=%.4g fF\n", bounds.A0, bounds.NoiseBound, bounds.PowerBound)
	rep, err := inst.Optimize(bounds)
	if err != nil {
		log.Fatal(err)
	}
	p := func(name string, init, fin float64, unit string) {
		impr := 100 * (init - fin) / init
		fmt.Printf("%-7s %12.5g -> %12.5g %-4s (%+.1f%%)\n", name, init, fin, unit, impr)
	}
	p("noise", rep.Initial.NoisePF, rep.Final.NoisePF, "pF")
	p("delay", rep.Initial.DelayPs, rep.Final.DelayPs, "ps")
	p("power", rep.Initial.PowerMW, rep.Final.PowerMW, "mW")
	p("area", rep.Initial.AreaUM2, rep.Final.AreaUM2, "um2")
	fmt.Printf("iterations %d, converged %v, duality gap %.3g%%, memory %.0f KB\n",
		rep.Iterations, rep.Converged, 100*rep.Gap, rep.MemoryKB)
	if !rep.Converged {
		os.Exit(1)
	}
}

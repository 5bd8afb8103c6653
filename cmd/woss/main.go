// Command woss demonstrates stage 1 of the paper's flow: logic-simulate a
// netlist, compute pairwise switching similarities for a group of nets, and
// compare the WOSS track ordering against random and (for small groups)
// exact orderings on the SS objective Σ(1 − similarity) between neighbours.
//
// Usage:
//
//	woss -bench circuit.bench [-nets 12] [-patterns 4096] [-seed 3]
//	woss -synthetic c432 [-nets 12]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/order"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("woss: ")
	benchFile := flag.String("bench", "", "path to an ISCAS85 .bench netlist")
	synthetic := flag.String("synthetic", "", "synthetic ISCAS85 circuit name (e.g. c432)")
	nNets := flag.Int("nets", 12, "number of nets to order as one routing channel")
	patterns := flag.Int("patterns", 4096, "number of logic-simulation input vectors for the switching-similarity analysis")
	seed := flag.Int64("seed", 3, "logic-simulation seed (results deterministic per seed)")
	flag.Parse()

	var (
		nl  *netlist.Netlist
		err error
	)
	switch {
	case *benchFile != "":
		f, ferr := os.Open(*benchFile)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		nl, err = netlist.Parse(*benchFile, f)
	case *synthetic != "":
		spec, ok := bench.SpecByName(*synthetic)
		if !ok {
			log.Fatalf("unknown circuit %q", *synthetic)
		}
		nl, err = bench.Generate(spec)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}

	waves, err := logicsim.Simulate(nl, *patterns, *seed)
	if err != nil {
		log.Fatal(err)
	}
	// Pick the first N non-input nets as the channel.
	var nets []int
	for gi, g := range nl.Gates {
		if g.Type == netlist.Input {
			continue
		}
		nets = append(nets, gi)
		if len(nets) == *nNets {
			break
		}
	}
	if len(nets) < 2 {
		log.Fatal("need at least two nets")
	}
	sim := waves.SimilarityMatrix(nets)
	m, err := order.FromSimilarity(sim)
	if err != nil {
		log.Fatal(err)
	}

	woss := order.WOSS(m)
	rnd := order.Random(len(nets), *seed)
	two := order.TwoOpt(m, woss)
	fmt.Printf("channel of %d nets, %d patterns\n", len(nets), *patterns)
	printOrd := func(name string, ord []int) {
		fmt.Printf("%-8s cost %7.3f  order:", name, order.Cost(m, ord))
		for _, p := range ord {
			fmt.Printf(" %s", nl.Gates[nets[p]].Name)
		}
		fmt.Println()
	}
	printOrd("woss", woss)
	printOrd("woss+2opt", two)
	printOrd("random", rnd)
	if len(nets) <= order.MaxExact {
		exact, err := order.Exact(m)
		if err != nil {
			log.Fatal(err)
		}
		printOrd("exact", exact)
	}
}

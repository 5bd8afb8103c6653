package bench

import (
	"repro/internal/fanout"
)

// RunTable1Parallel runs every spec through RunRow and returns the rows
// in spec order, with the specs built and solved concurrently on at most
// workers goroutines (0 selects runtime.GOMAXPROCS(0)). If any specs
// fail, the lowest-index error is returned after all in-flight rows
// finish.
//
// Each spec's full pipeline — netlist generation, logic simulation,
// elaboration, wire ordering, coupling extraction, and the OGWS solve —
// runs on one goroutine, so the sweep scales across circuits rather than
// within one, and each row is bit-identical to its RunRow counterpart.
func RunTable1Parallel(specs []Spec, opt RunOptions, workers int) ([]*Table1Row, error) {
	rows := make([]*Table1Row, len(specs))
	errs := make([]error, len(specs))
	fanout.Each(len(specs), workers, func(i int) {
		rows[i], errs[i] = RunRow(specs[i], opt)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

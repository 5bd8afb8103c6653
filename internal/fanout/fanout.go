// Package fanout runs embarrassingly parallel index loops — the shared
// engine behind the repo's batch drivers (bench.RunTable1Parallel,
// repro.OptimizeBatch, the sweep engine's cells and rows, logicsim's
// similarity matrix, variation's corner and Monte-Carlo solves). Callers
// keep their own result slices indexed by i, so output placement is
// deterministic regardless of scheduling.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs fn(i) for every i in [0, n), distributing indices across at
// most workers goroutines (workers <= 0 selects runtime.GOMAXPROCS(0)) and
// returning once all calls have completed. Indices are handed out one at a
// time in ascending order, which load-balances uneven items; fn must be
// safe to call concurrently for distinct i. With one worker (or n <= 1)
// everything runs inline on the caller's goroutine.
func Each(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Package fanout runs embarrassingly parallel index loops — the shared
// engine behind the repo's batch drivers (bench.RunTable1Parallel,
// repro.OptimizeBatch, and the batches of the plan runner,
// bench.Instance.RunPlan). Every solve runs serially, so these loops are
// where the cores go: across independent solves, never inside one.
// Callers keep their own result slices indexed by i, so output placement
// is deterministic regardless of scheduling.
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

// Ordered runs solve(i) for every i in [0, n) like Each, at most workers
// at once, and calls observe(i), when non-nil, as soon as i and every
// lower index have succeeded: in index order, one call at a time, and
// never under a lock the solves take. solve must write only slot i of its
// results. A failing solve(i) stops the loop at i: no solve starts past
// it (solves already running finish) and nothing past it is observed.
// Ordered returns the lowest-index error, so the outcome is a pure
// function of the indices whatever the width. With one worker,
// observe(i) runs right after solve(i), before solve(i+1) starts.
func Ordered(n, workers int, solve func(i int) error, observe func(i int)) error {
	errs := make([]error, n)
	finished := make([]bool, n)
	var mu sync.Mutex
	// failed is the lowest failed index so far (n while none has); next is
	// the lowest index not yet observed; emitting marks the goroutine that
	// is running observe calls.
	failed, next, emitting := n, 0, false
	Each(n, workers, func(i int) {
		mu.Lock()
		skip := i > failed
		mu.Unlock()
		if skip {
			return
		}
		err := solve(i)
		mu.Lock()
		errs[i], finished[i] = err, true
		if err != nil {
			failed = min(failed, i)
		}
		if observe != nil && !emitting {
			emitting = true
			for next < failed && finished[next] {
				j := next
				next++
				mu.Unlock()
				observe(j)
				mu.Lock()
			}
			emitting = false
		}
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package fanout

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			visited := make([]int32, n)
			Each(n, workers, func(i int) {
				atomic.AddInt32(&visited[i], 1)
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestEachInlineWhenSerial(t *testing.T) {
	// workers == 1 must run on the calling goroutine, in order.
	var order []int
	Each(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Each out of order: %v", order)
		}
	}
}

// TestOrderedFailureContract pins Ordered's failure rules at every width:
// the lowest-index error wins whatever order the solves finish in,
// observe sees exactly the indices below the first failure, in order, the
// sequential schedule starts no solve past a failure, and a failing
// observe stops the loop like a failing solve.
func TestOrderedFailureContract(t *testing.T) {
	const n = 8
	for _, width := range []int{1, 2, 4, n} {
		var observed []int
		var started [n]atomic.Bool
		err := Ordered(n, width, func(i int) error {
			started[i].Store(true)
			if i == 3 || i == 6 {
				return fmt.Errorf("solve %d failed", i)
			}
			return nil
		}, func(i int) {
			observed = append(observed, i)
		})
		if err == nil || err.Error() != "solve 3 failed" {
			t.Errorf("width %d: error %v, want the lowest-index failure", width, err)
		}
		if !reflect.DeepEqual(observed, []int{0, 1, 2}) {
			t.Errorf("width %d: observed %v, want [0 1 2]", width, observed)
		}
		if width == 1 && started[4].Load() {
			t.Error("sequential schedule started a solve past a failure")
		}
	}
}

package sweep

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestCancelStopsSweep pins the shedding hook: once Cancel reports true,
// no further cells start and Run returns core.ErrCancelled; a sweep whose
// Cancel never fires is untouched by the hook's presence.
func TestCancelStopsSweep(t *testing.T) {
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		t.Run(name, func(t *testing.T) {
			inst, b := testInstance(t, 12, 10)
			var solved atomic.Int64
			opt := testOptions(b, func(o *Options) {
				o.Cold = cold
				o.OnCell = func(*Cell) { solved.Add(1) }
				o.Cancel = func() bool { return solved.Load() >= 2 }
			})
			if _, err := Run(inst, opt); !errors.Is(err, core.ErrCancelled) {
				t.Fatalf("cancelled sweep returned %v, want core.ErrCancelled", err)
			}
			if n := solved.Load(); n >= int64(len(opt.DelayScale)*len(opt.NoiseScale)) {
				t.Errorf("cancellation did not shed work: %d cells solved", n)
			}

			ref := stripTiming(runSweep(t, inst, testOptions(b, func(o *Options) { o.Cold = cold })))
			hooked := stripTiming(runSweep(t, inst, testOptions(b, func(o *Options) {
				o.Cold = cold
				o.Cancel = func() bool { return false }
			})))
			if !reflect.DeepEqual(ref, hooked) {
				t.Error("an idle Cancel hook changed the solved grid")
			}
		})
	}
}

// TestOnCellStreamsEveryCellOnce pins the row-streaming contract: the
// callback fires exactly once per cell with the populated result, within a
// row in column order, and installing it changes nothing about the solved
// grid.
func TestOnCellStreamsEveryCellOnce(t *testing.T) {
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		t.Run(name, func(t *testing.T) {
			inst, b := testInstance(t, 12, 10)
			ref := stripTiming(runSweep(t, inst, testOptions(b, func(o *Options) {
				o.Cold = cold
			})))

			var mu sync.Mutex
			seen := map[[2]int]int{}
			lastCol := map[int]int{}
			orderOK := true
			got := runSweep(t, inst, testOptions(b, func(o *Options) {
				o.Cold = cold
				o.SweepWorkers = 4
				o.OnCell = func(c *Cell) {
					mu.Lock()
					defer mu.Unlock()
					seen[[2]int{c.Row, c.Col}]++
					if c.Result == nil {
						t.Error("callback saw a cell without a result")
					}
					if prev, ok := lastCol[c.Row]; ok && c.Col <= prev {
						orderOK = false
					}
					lastCol[c.Row] = c.Col
				}
			}))
			if len(seen) != len(ref.Cells) {
				t.Fatalf("callback fired for %d distinct cells, want %d", len(seen), len(ref.Cells))
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("cell %v streamed %d times", k, n)
				}
			}
			if !cold && !orderOK {
				t.Error("cells within a row did not stream in column order")
			}
			if !reflect.DeepEqual(ref, stripTiming(got)) {
				t.Error("installing OnCell changed the solved grid")
			}
		})
	}
}

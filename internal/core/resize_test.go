package core

import (
	"math"
	"math/rand"
	"testing"
)

// referenceStep is the resize's post-optᵢ update without the floor skip:
// wherever floorPinned lets resizeNode skip it, it must return lo bit for
// bit.
func referenceStep(x, opt, lo, hi, w float64) float64 {
	if w == 1 {
		x = opt
	} else {
		x = math.Exp((1-w)*math.Log(x) + w*math.Log(math.Max(opt, 1e-300)))
	}
	if x < lo {
		x = lo
	} else if x > hi {
		x = hi
	}
	return x
}

// ulpsBelow returns v stepped down by k units in the last place.
func ulpsBelow(v float64, k uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) - k)
}

// TestFloorSkipIsExact pins the floor skip bitwise against the unskipped
// formula: wherever floorPinned skips the update, the formula must return
// the floor exactly. The sizes are floor-pinned (x = lo), with optima in
// five bands under the floor, from a few ulps below the skip threshold
// lo·τ down to the 1e-300 floor on optᵢ, at damping values spanning the
// valid range. The floors are log-uniform on [1e-3, 1e3], plus a few
// around 1e-300, where the optimum floor itself sits near lo·τ. It also
// requires the table to hold optima below lo that the formula does not
// return to lo: they are why the skip needs the τ margin, and they fail a
// skip that tests optᵢ < lo instead.
func TestFloorSkipIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const floors, tinyFloors, perBand = 200, 20, 32
	var cases, skipped, naiveWrong int
	for _, w := range []float64{1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.999, 1} {
		tau := floorSkipTau(w)
		for f := 0; f < floors+tinyFloors; f++ {
			lo := math.Pow(10, -3+6*rng.Float64())
			if f >= floors {
				lo = math.Pow(10, -305+10*rng.Float64())
			}
			hi := 4 * lo
			var opts []float64
			for k := uint64(0); k < 64; k++ {
				if lt := lo * tau; lt > 0 {
					opts = append(opts, ulpsBelow(lt, k))
				}
				opts = append(opts, ulpsBelow(lo, k+1))
			}
			for k := 0; k < perBand; k++ {
				opts = append(opts,
					lo*rng.Float64(),
					math.Pow(10, -300-20*rng.Float64()),
					lo*(1-math.Pow(10, -16+8*rng.Float64())))
			}
			opts = append(opts, 0)
			for _, opt := range opts {
				want := referenceStep(lo, opt, lo, hi, w)
				if floorPinned(lo, opt, lo, tau) {
					if math.Float64bits(want) != math.Float64bits(lo) {
						t.Fatalf("ω=%g lo=%v opt=%v: skipped, but the formula gives %v", w, lo, opt, want)
					}
					skipped++
				}
				cases++
				if opt < lo && want != lo {
					naiveWrong++
				}
			}
		}
	}
	t.Logf("%d cases, %d skipped, %d below lo that the formula leaves above lo", cases, skipped, naiveWrong)
	if skipped < cases/2 {
		t.Errorf("only %d of %d cases are skipped", skipped, cases)
	}
	if naiveWrong == 0 {
		t.Error("no case has an optimum below lo that the formula leaves above lo; the table no longer shows why the skip needs its margin")
	}
}

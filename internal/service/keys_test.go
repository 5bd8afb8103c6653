package service

import (
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/variation"
)

// TestDedupKeysPinned pins the bytes of the dedup keys the durable store
// files results under: a key that changes strands every result stored
// before the change, so a store written by an earlier build must still
// dedup. The hex strings were recorded before the full-pass request field
// was retired, whose flag bit is now never set.
func TestDedupKeysPinned(t *testing.T) {
	b := bench.Bounds{A0: 123.5, NoiseBound: 7.25, PowerBound: 250}
	seed := []float64{1, 1.5, 2.25, 0.1}
	dual := new(core.DualState)
	if err := json.Unmarshal([]byte(`{"edge":[[0.5],[0.25,1.5]],"beta":0.125,"gamma":2,"gamma_v":[0,3]}`), dual); err != nil {
		t.Fatal(err)
	}
	corners := variation.StandardCorners()
	for _, c := range []struct{ name, got, want string }{
		{"solve cold", solveKey("c432:abcd", b, 0, 0, false, seed, nil),
			"34356dbd8a3c2a17537404b2ecd09b997c0436c93eb027c6fd3e5271227fc11f"},
		{"solve warm seed", solveKey("c432:abcd", b, 200, 0.02, true, seed, nil),
			"ac5f3bbf1f1439bcab37ac89f6cbf5dfa848127817d6645b5e5a53dcaef8046c"},
		{"solve dual", solveKey("c432:abcd", b, 0, 0, true, seed, dual),
			"424d403fb61bca4635fd117b89c7700133c2fa3c8ba4efb15c4603d7af18400a"},
		{"corners cold", cornersKey("c880:ef01", b, corners, true, false, false, 0, 0),
			"942d968e2a8f6b935c597ce33a349e3ffccf750ec562ac166a7905a844b81fe8"},
		{"corners primal_only", cornersKey("c880:ef01", b, corners, false, true, false, 60, 0.05),
			"3333ffda1c0d975282a9cccf910d09d04507894358cc17c9f0ad47cad8072c49"},
		{"corners s1", cornersKey("c880:ef01", b, corners, false, false, true, 0, 0),
			"9dad0fab6b3d7f343221b53d353a4817a71e718ae21ac10ab63785921f11c9ea"},
	} {
		if c.got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, c.got, c.want)
		}
	}
}

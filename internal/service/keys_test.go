package service

import (
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/variation"
)

// TestDedupKeysPinned pins the bytes of the dedup keys the durable store
// files results under. Within one core.Numerics a key that changes strands
// every result stored before the change, so a store written by an earlier
// build of the same numerics must still dedup. Across numerics every key
// must change, so a store written under other numerics answers nothing:
// want is the key under numerics 2, was the key numerics 1 (the damped
// resize) built.
func TestDedupKeysPinned(t *testing.T) {
	b := bench.Bounds{A0: 123.5, NoiseBound: 7.25, PowerBound: 250}
	seed := []float64{1, 1.5, 2.25, 0.1}
	dual := new(core.DualState)
	if err := json.Unmarshal([]byte(`{"edge":[[0.5],[0.25,1.5]],"beta":0.125,"gamma":2,"gamma_v":[0,3]}`), dual); err != nil {
		t.Fatal(err)
	}
	corners := variation.StandardCorners()
	sigmas := variation.Sigmas{R: 0.05, C: 0.04, Threshold: 0.02}
	for _, c := range []struct{ name, got, want, was string }{
		{"solve cold", solveKey("c432:abcd", b, 0, 0, false, seed, nil),
			"3e7a36f52edac6ad7b9263c4d3c4f0e469db0d1c85560308cae28191f916eacb",
			"34356dbd8a3c2a17537404b2ecd09b997c0436c93eb027c6fd3e5271227fc11f"},
		{"solve warm seed", solveKey("c432:abcd", b, 200, 0.02, true, seed, nil),
			"511136fd1a869d510c1605b9d1867c3ba88935b8d5676269ffabfa44ee4285f3",
			"ac5f3bbf1f1439bcab37ac89f6cbf5dfa848127817d6645b5e5a53dcaef8046c"},
		{"solve dual", solveKey("c432:abcd", b, 0, 0, true, seed, dual),
			"bc97e636209b7c514dd7d7448607ba75d774a1f2b96108122462dd0df9e61069",
			"424d403fb61bca4635fd117b89c7700133c2fa3c8ba4efb15c4603d7af18400a"},
		{"mc seed 7", mcKey("c432:abcd", b, 16, 7, sigmas, 60, 0),
			"21e9c0628e0c908827bf1ac718aa65e047fc1bdd25185cae9d6620f8df5b6a8e",
			"5e67047061c63d145322506f0fdc56db64949871add7c940618ad65aa2ec96d0"},
		{"corners cold", cornersKey("c880:ef01", b, corners, true, false, false, 0, 0),
			"01eece78675d122f5176698ed52ed1de31da6d65557dbed108e10327e5854867",
			"942d968e2a8f6b935c597ce33a349e3ffccf750ec562ac166a7905a844b81fe8"},
		{"corners primal_only", cornersKey("c880:ef01", b, corners, false, true, false, 60, 0.05),
			"4a78754f858c3d8fed75ad3eb8f4fb79e1bbc81444e818432d1a5bde21ca2421",
			"3333ffda1c0d975282a9cccf910d09d04507894358cc17c9f0ad47cad8072c49"},
		{"corners s1", cornersKey("c880:ef01", b, corners, false, false, true, 0, 0),
			"70e0bef88a0f65a304de9c740234adf5799e391e0f6e5e6e91bd49eb428b3af8",
			"9dad0fab6b3d7f343221b53d353a4817a71e718ae21ac10ab63785921f11c9ea"},
	} {
		if c.got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, c.got, c.want)
		}
		if c.got == c.was {
			t.Errorf("%s: key %s is the one numerics 1 built", c.name, c.got)
		}
	}
}

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
// want is the key under numerics 3 (S1 once per solve), was the key
// numerics 2 (S1 at every LRS call) built.
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
			"ccb9b74e354e826694426cc1737d5273c5bebdf274d298b91646208517a9088b",
			"3e7a36f52edac6ad7b9263c4d3c4f0e469db0d1c85560308cae28191f916eacb"},
		{"solve warm seed", solveKey("c432:abcd", b, 200, 0.02, true, seed, nil),
			"9fbab9c10814c5d628ad891f6a81fd622fdba07608fd3a5f22e41707c0359523",
			"511136fd1a869d510c1605b9d1867c3ba88935b8d5676269ffabfa44ee4285f3"},
		{"solve dual", solveKey("c432:abcd", b, 0, 0, true, seed, dual),
			"f7160e5c3a39f67576cc7ad3712ff83118de5161bddf19d1d6cd0bcbbdb1a575",
			"bc97e636209b7c514dd7d7448607ba75d774a1f2b96108122462dd0df9e61069"},
		{"mc seed 7", mcKey("c432:abcd", b, 16, 7, sigmas, 60, 0),
			"16bedfa4539fe41ce038e7631d44e221c83dc0aa65642a2fbacc539633b39bf6",
			"21e9c0628e0c908827bf1ac718aa65e047fc1bdd25185cae9d6620f8df5b6a8e"},
		{"corners cold", cornersKey("c880:ef01", b, corners, true, false, false, 0, 0),
			"637d641e841d027511a97025f023aa0e55d5cd3c65824ef26ca7ff2905ceb3cc",
			"01eece78675d122f5176698ed52ed1de31da6d65557dbed108e10327e5854867"},
		{"corners primal_only", cornersKey("c880:ef01", b, corners, false, true, false, 60, 0.05),
			"775c61a8c5602b234236a6981090ac02778f76f5ced16e7c286ffa50c9b0f1e6",
			"4a78754f858c3d8fed75ad3eb8f4fb79e1bbc81444e818432d1a5bde21ca2421"},
		{"corners s1", cornersKey("c880:ef01", b, corners, false, false, true, 0, 0),
			"50bd9ee320d3a70922fbeb88e89379fc5936f1d3ba359b4c0481e3cbe6dbb12c",
			"70e0bef88a0f65a304de9c740234adf5799e391e0f6e5e6e91bd49eb428b3af8"},
	} {
		if c.got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, c.got, c.want)
		}
		if c.got == c.was {
			t.Errorf("%s: key %s is the one numerics 2 built", c.name, c.got)
		}
	}
}

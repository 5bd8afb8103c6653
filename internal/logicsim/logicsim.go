// Package logicsim evaluates a combinational netlist over test-pattern sets
// and derives the switching-similarity measure from Section 3.2 of the
// paper:
//
//	similarity(i,j) = (1/T_D) ∫ f(i,t)·f(j,t) dt,   f ∈ {+1, −1}
//
// For a discrete pattern set of T vectors this is (agreements −
// disagreements)/T ∈ [−1, 1]. Signals are packed 64 patterns per machine
// word, so gate evaluation and similarity (XOR + popcount) are bit-parallel.
package logicsim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/netlist"
)

// Waveforms holds the simulated logic values of every net over T patterns.
type Waveforms struct {
	T     int
	words int
	bits  [][]uint64 // indexed by netlist gate index
}

// Similarity returns the switching similarity of two nets in [−1, 1]:
// +1 for identical waveforms, −1 for complementary ones.
func (w *Waveforms) Similarity(i, j int) float64 {
	if w.T == 0 {
		return 1
	}
	diff := 0
	for k, wi := range w.bits[i] {
		diff += bits.OnesCount64(wi ^ w.bits[j][k])
	}
	return float64(w.T-2*diff) / float64(w.T)
}

// SimilarityMatrix computes the full pairwise similarity for the given nets.
// The result is symmetric with unit diagonal.
func (w *Waveforms) SimilarityMatrix(nets []int) [][]float64 {
	n := len(nets)
	m := make([][]float64, n)
	for a := range nets {
		m[a] = make([]float64, n)
		m[a][a] = 1
	}
	for a := range nets {
		for b := a + 1; b < n; b++ {
			s := w.Similarity(nets[a], nets[b])
			m[a][b], m[b][a] = s, s
		}
	}
	return m
}

// Simulate applies T uniformly random input patterns (deterministic in
// seed) to the netlist and returns the waveforms of every net.
func Simulate(n *netlist.Netlist, T int, seed int64) (*Waveforms, error) {
	rng := rand.New(rand.NewSource(seed))
	return SimulateFunc(n, T, func(input, t int) bool { return rng.Int63()&1 == 1 })
}

// SimulateFunc applies T input patterns defined by value(inputIdx, t), where
// inputIdx indexes n.Inputs, and returns the waveforms of every net.
func SimulateFunc(n *netlist.Netlist, T int, value func(input, t int) bool) (*Waveforms, error) {
	if T <= 0 {
		return nil, fmt.Errorf("logicsim: need at least one pattern, got %d", T)
	}
	words := (T + 63) / 64
	w := &Waveforms{T: T, words: words, bits: make([][]uint64, len(n.Gates))}
	backing := make([]uint64, words*len(n.Gates))
	for i := range w.bits {
		w.bits[i], backing = backing[:words:words], backing[words:]
	}
	for ii, gi := range n.Inputs {
		row := w.bits[gi]
		for t := 0; t < T; t++ {
			if value(ii, t) {
				row[t>>6] |= 1 << (uint(t) & 63)
			}
		}
	}
	mask := ^uint64(0)
	if T&63 != 0 {
		mask = (uint64(1) << (uint(T) & 63)) - 1
	}
	for gi := range n.Gates { // topological order
		g := &n.Gates[gi]
		if g.Type == netlist.Input {
			continue
		}
		row := w.bits[gi]
		if err := evalGate(g.Type, row, w.bits, g.Fanin); err != nil {
			return nil, fmt.Errorf("logicsim: net %q: %v", g.Name, err)
		}
		row[words-1] &= mask // keep padding bits zero for popcount hygiene
	}
	return w, nil
}

func evalGate(t netlist.GateType, dst []uint64, all [][]uint64, fanin []int32) error {
	if len(fanin) == 0 {
		return fmt.Errorf("gate has no fan-in")
	}
	src0 := all[fanin[0]]
	switch t {
	case netlist.Buf:
		copy(dst, src0)
	case netlist.Not:
		for k := range dst {
			dst[k] = ^src0[k]
		}
	case netlist.And, netlist.Nand:
		copy(dst, src0)
		for _, f := range fanin[1:] {
			src := all[f]
			for k := range dst {
				dst[k] &= src[k]
			}
		}
		if t == netlist.Nand {
			for k := range dst {
				dst[k] = ^dst[k]
			}
		}
	case netlist.Or, netlist.Nor:
		copy(dst, src0)
		for _, f := range fanin[1:] {
			src := all[f]
			for k := range dst {
				dst[k] |= src[k]
			}
		}
		if t == netlist.Nor {
			for k := range dst {
				dst[k] = ^dst[k]
			}
		}
	case netlist.Xor, netlist.Xnor:
		copy(dst, src0)
		for _, f := range fanin[1:] {
			src := all[f]
			for k := range dst {
				dst[k] ^= src[k]
			}
		}
		if t == netlist.Xnor {
			for k := range dst {
				dst[k] = ^dst[k]
			}
		}
	default:
		return fmt.Errorf("cannot evaluate gate type %v", t)
	}
	return nil
}

// FromBits builds waveforms directly from explicit per-net samples
// (true = logic high), for hand-specified examples such as the paper's
// Figure 6. All rows must have equal length.
func FromBits(rows [][]bool) (*Waveforms, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("logicsim: FromBits needs at least one non-empty row")
	}
	T := len(rows[0])
	words := (T + 63) / 64
	w := &Waveforms{T: T, words: words, bits: make([][]uint64, len(rows))}
	for i, r := range rows {
		if len(r) != T {
			return nil, fmt.Errorf("logicsim: row %d has %d samples, want %d", i, len(r), T)
		}
		w.bits[i] = make([]uint64, words)
		for t, v := range r {
			if v {
				w.bits[i][t>>6] |= 1 << (uint(t) & 63)
			}
		}
	}
	return w, nil
}

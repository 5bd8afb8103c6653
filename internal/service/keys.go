package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/variation"
)

// Dedup keys. A run's key hashes everything that determines its result
// bits, so a stored run answers a repeat byte-for-byte without solving.
// That includes the solver's arithmetic itself, core.Numerics: a build
// whose numerics differ keys every run afresh, so a store written by an
// earlier build never answers it with the old bits. Scheduling widths
// (sweep_workers) are excluded from every key — results are bit-identical
// at every width, which is the stack's core determinism contract — so the
// same run at a different width dedups. The layout of each key is frozen
// within one numerics (TestDedupKeysPinned).

// keyHash accumulates one dedup key: a
// "<kind>/v1|numerics <n>|<circuit key>|" header and the resolved bounds,
// then fixed-width little-endian words, and the hex SHA-256 of it all.
type keyHash struct{ h hash.Hash }

func newKeyHash(kind, circuitKey string, b bench.Bounds) *keyHash {
	k := &keyHash{h: sha256.New()}
	fmt.Fprintf(k.h, "%s/v1|numerics %d|%s|", kind, core.Numerics, circuitKey)
	k.floats(b.A0, b.NoiseBound, b.PowerBound)
	return k
}

func (k *keyHash) word(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	k.h.Write(buf[:])
}

func (k *keyHash) floats(vs ...float64) {
	for _, v := range vs {
		k.word(math.Float64bits(v))
	}
}

// budget hashes the iteration budget the solver runs with, so "default
// by omission" and "default spelled out" hash identically.
func (k *keyHash) budget(maxIter int, epsilon float64) {
	maxIter, epsilon = core.Budget(maxIter, epsilon)
	k.word(uint64(maxIter))
	k.floats(epsilon)
}

func (k *keyHash) sum() string { return hex.EncodeToString(k.h.Sum(nil)) }

// solveKey keys a solve: the circuit, the resolved bounds, the normalized
// solver knobs, and the resolved warm-start state (seed sizes and dual,
// after warm_from/primal_only/s1 resolution). Flag bit 1 belonged to the
// retired full-pass request field and is never set, so every key stored
// without it keeps its bytes.
func solveKey(circuitKey string, b bench.Bounds, maxIter int, epsilon float64, warm bool, seed []float64, dual *core.DualState) string {
	k := newKeyHash("solve", circuitKey, b)
	k.budget(maxIter, epsilon)
	flags := uint64(0)
	if warm {
		flags |= 2
	}
	k.word(flags)
	k.word(uint64(len(seed)))
	k.floats(seed...)
	if dual != nil {
		// The dual wire form is an exact float64 round-trip, so its JSON is
		// a faithful content fingerprint.
		if data, err := json.Marshal(dual); err == nil {
			k.h.Write(data)
		}
	}
	return k.sum()
}

// mcKey keys a Monte-Carlo run: the circuit, the resolved bounds, the
// sample count, seed and sigmas, and the normalized solver knobs.
func mcKey(circuitKey string, b bench.Bounds, samples int, seed uint64, sg variation.Sigmas, maxIter int, epsilon float64) string {
	k := newKeyHash("mc", circuitKey, b)
	k.word(uint64(samples))
	k.word(seed)
	k.floats(sg.R, sg.C, sg.Threshold)
	k.budget(maxIter, epsilon)
	return k.sum()
}

// cornersKey keys a corner enumeration: the circuit, the resolved bounds,
// the corner list itself, the warm/cold schedule knobs (they are pinned
// bit-identical under ColdLRS+PrimalOnly but are an explicit request
// surface, so they hash conservatively), and the normalized solver knobs.
// Flag bit 8 belonged to the retired full-pass request field and is never
// set, so every key stored without it keeps its bytes.
func cornersKey(circuitKey string, b bench.Bounds, corners []variation.Corner, cold, primalOnly, coldLRS bool, maxIter int, epsilon float64) string {
	k := newKeyHash("corners", circuitKey, b)
	k.word(uint64(len(corners)))
	for _, c := range corners {
		fmt.Fprintf(k.h, "%s|", c.Name)
		k.floats(c.R, c.C, c.Threshold)
	}
	flags := uint64(0)
	if cold {
		flags |= 1
	}
	if primalOnly {
		flags |= 2
	}
	if coldLRS {
		flags |= 4
	}
	k.word(flags)
	k.budget(maxIter, epsilon)
	return k.sum()
}

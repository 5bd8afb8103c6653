package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm/api"
	"repro/internal/netlist"
	"repro/internal/store"
)

// Store key layout. Circuits persist as their farm wire-form spec (the
// same api.CircuitSpec a worker materializes a bit-identical replica
// from), saved results as both warm-start halves, and finished solves
// under a content hash of everything that determines their bits.
const (
	circuitPrefix = "circuit/"
	resultPrefix  = "result/"
	solvePrefix   = "solve/"
)

// storedResult is the persisted form of a saved (save_as) result: the
// solved sizes inside Result plus the exact-round-trip DualState
// (internal/core/dualjson.go), i.e. both halves of a warm start.
type storedResult struct {
	Result *core.Result    `json:"result"`
	Dual   *core.DualState `json:"dual,omitempty"`
}

// storedSolve is the persisted outcome of one fully-resolved solve,
// keyed by solveKey: the dedup payload POST /solve returns without
// re-solving.
type storedSolve struct {
	CircuitKey string          `json:"circuit_key"`
	Circuit    string          `json:"circuit"`
	Result     *core.Result    `json:"result"`
	Dual       *core.DualState `json:"dual,omitempty"`
}

// solveKey hashes everything that determines a solve's result bits: the
// circuit content hash, the resolved bounds, the normalized solver knobs,
// and the resolved warm-start state (seed sizes and dual, after
// warm_from/primal_only/s1 resolution). Workers is deliberately excluded —
// results are bit-identical at every width, which is the solver's core
// determinism contract — so the same solve at a different width dedups.
// Flag bit 1 belonged to the retired full-pass request field and is never
// set, so every key stored without it keeps its bytes.
func solveKey(circuitKey string, b bench.Bounds, maxIter int, epsilon float64, warm bool, seed []float64, dual *core.DualState) string {
	// Hash the budget the solver runs with, so "default by omission" and
	// "default spelled out" hash identically.
	maxIter, epsilon = core.Budget(maxIter, epsilon)
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "solve/v1|%s|", circuitKey)
	put(math.Float64bits(b.A0))
	put(math.Float64bits(b.NoiseBound))
	put(math.Float64bits(b.PowerBound))
	put(uint64(maxIter))
	put(math.Float64bits(epsilon))
	flags := uint64(0)
	if warm {
		flags |= 2
	}
	put(flags)
	put(uint64(len(seed)))
	for _, x := range seed {
		put(math.Float64bits(x))
	}
	if dual != nil {
		// The dual wire form is an exact float64 round-trip, so its JSON is
		// a faithful content fingerprint.
		if data, err := json.Marshal(dual); err == nil {
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildForSpec resolves a circuit wire-form spec to its display name and
// instance constructor — the one spec→instance mapping shared by live
// registration (handleRegister) and boot reload, mirroring the farm
// worker's materialize so every path builds the identical replica.
func buildForSpec(spec api.CircuitSpec) (string, func() (*bench.Instance, *bench.Bounds, error), error) {
	if err := spec.Validate(); err != nil {
		return "", nil, err
	}
	pipe := bench.PipelineOptions{WireLengthScale: spec.WireLengthScale}
	switch {
	case spec.Synthetic != "":
		s, ok := bench.SpecByName(spec.Synthetic)
		if !ok {
			return "", nil, fmt.Errorf("unknown synthetic circuit %q", spec.Synthetic)
		}
		return s.Name, func() (*bench.Instance, *bench.Bounds, error) {
			inst, err := bench.BuildInstance(s, pipe)
			return inst, nil, err
		}, nil
	case spec.Netlist != "":
		name := spec.Name
		if name == "" {
			name = "upload"
		}
		return name, func() (*bench.Instance, *bench.Bounds, error) {
			nl, err := netlist.Parse(name, strings.NewReader(spec.Netlist))
			if err != nil {
				return nil, nil, err
			}
			inst, err := bench.AssembleNetlist(nl, spec.Seed, pipe)
			return inst, nil, err
		}, nil
	default:
		g := spec.Grid
		return "grid-mesh", func() (*bench.Instance, *bench.Bounds, error) {
			inst, b, err := bench.GridInstance(g.Width, g.Layers, g.Coupled)
			if err != nil {
				return nil, nil, err
			}
			// Grid meshes carry their own calibration bounds: DeriveBounds
			// assumes the netlist pipeline's fields, which a mesh skips.
			return inst, &b, nil
		}, nil
	}
}

// storePut is the single write path to the durable store. Every persist
// goes through the degraded-mode gate (see storeGate in resilience.go):
// in rw mode the write happens and its outcome feeds the gate's failure
// streak; in degraded mode everything but the periodic recovery probe is
// skipped. Persistence failing never fails the request — the solve
// already has its bytes — so the outcome surfaces only in the counters.
// A value JSON cannot encode counts as a store error but never feeds the
// gate: nothing reached the disk, so it says nothing about the disk.
func (s *Server) storePut(key string, v any) {
	if s.opt.Store == nil {
		return
	}
	if !s.gate.allow(s.opt.Now()) {
		return
	}
	if err := s.opt.Store.Put(key, v); err != nil {
		s.stats.addStoreError()
		if !errors.Is(err, store.ErrUnencodable) {
			s.gate.failure(s.opt.Now())
		}
		return
	}
	s.gate.success()
}

// persistCircuit records a newly registered circuit's wire-form spec so a
// restarted server can rebuild the instance under the same key.
func (s *Server) persistCircuit(spec api.CircuitSpec) {
	s.storePut(circuitPrefix+spec.Key, spec)
}

// persistResult records one saved (save_as) result under its circuit and
// name, making warm_from chains restart-proof.
func (s *Server) persistResult(circuitKey, name string, r *savedResult) {
	s.storePut(resultPrefix+circuitKey+"/"+name, storedResult{Result: r.Result, Dual: r.Dual})
}

// persistSolve records a finished solve under its content hash for dedup.
func (s *Server) persistSolve(key string, v storedSolve) {
	s.storePut(solvePrefix+key, v)
}

// lookupSolve returns the stored solve for key, or nil.
func (s *Server) lookupSolve(key string) *storedSolve {
	if s.opt.Store == nil {
		return nil
	}
	var v storedSolve
	ok, err := s.opt.Store.Get(solvePrefix+key, &v)
	if err != nil {
		s.stats.addStoreError()
		return nil
	}
	if !ok {
		return nil
	}
	return &v
}

// reloadFromStore rebuilds the in-memory state a restart lost: every
// persisted circuit is re-materialized into the instance cache (in
// first-insertion order — the LRU keeps the most recently persisted
// CacheSize instances), then every persisted saved result is replayed
// onto its circuit. Records whose circuit fell off the cache (or whose
// spec no longer builds) are skipped, not fatal: the store is a corpus,
// not a ledger, and a later register of the same content re-attaches it.
func (s *Server) reloadFromStore() {
	st := s.opt.Store
	if st == nil {
		return
	}
	for _, key := range st.Keys(circuitPrefix) {
		var spec api.CircuitSpec
		if ok, err := st.Get(key, &spec); err != nil || !ok {
			s.stats.addStoreError()
			continue
		}
		name, build, err := buildForSpec(spec)
		if err != nil {
			s.stats.addStoreError()
			continue
		}
		if _, _, err := s.cache.getOrBuild(spec.Key, name, spec, build); err != nil {
			s.stats.addStoreError()
			continue
		}
		s.stats.addReloadedCircuit()
	}
	for _, key := range st.Keys(resultPrefix) {
		rest := strings.TrimPrefix(key, resultPrefix)
		slash := strings.IndexByte(rest, '/')
		if slash <= 0 {
			continue
		}
		circuitKey, name := rest[:slash], rest[slash+1:]
		e := s.cache.get(circuitKey)
		if e == nil {
			continue // circuit evicted by the CacheSize bound on reload
		}
		var v storedResult
		if ok, err := st.Get(key, &v); err != nil || !ok || v.Result == nil {
			s.stats.addStoreError()
			continue
		}
		e.saveResult(name, &savedResult{Result: v.Result, Dual: v.Dual}, s.opt.MaxSavedResults)
		s.stats.addReloadedResult()
	}
}

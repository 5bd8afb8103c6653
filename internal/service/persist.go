package service

import (
	"errors"
	"strings"

	"repro/internal/core"
	"repro/internal/farm/api"
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

// stamp heads every persisted result record: the core.Numerics of the
// build that wrote it. The dedup keys hash the numerics too, so a record
// of other numerics is one no current key reaches; the stamp is what
// tells boot reload which saved results to skip. A record written before
// the stamp existed decodes as 0, which no build has used.
type stamp struct {
	Numerics int `json:"numerics"`
}

// thisBuild is the stamp every record this build writes carries.
var thisBuild = stamp{Numerics: core.Numerics}

// foreign reports whether the record was written under other numerics.
func (st stamp) foreign() bool { return st.Numerics != core.Numerics }

// storedResult is one named (save_as) solve outcome, kept on its cache
// entry for warm-start reuse and persisted under resultPrefix: the final
// sizes inside Result (the primal half of the next warm start) and the
// exact-round-trip final multipliers (the dual half;
// internal/core/dualjson.go).
type storedResult struct {
	stamp
	Result *core.Result    `json:"result"`
	Dual   *core.DualState `json:"dual,omitempty"`
}

// storedSolve is the persisted outcome of one fully-resolved solve,
// keyed by solveKey: the dedup payload POST /solve returns without
// re-solving.
type storedSolve struct {
	stamp
	CircuitKey string          `json:"circuit_key"`
	Circuit    string          `json:"circuit"`
	Result     *core.Result    `json:"result"`
	Dual       *core.DualState `json:"dual,omitempty"`
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

// saveAs keeps a solve's result under name for warm_from and GET
// /results, and persists it so the warm_from chain survives a restart; an
// empty name keeps nothing.
func (s *Server) saveAs(e *entry, name string, res *core.Result, dual *core.DualState) {
	if name == "" {
		return
	}
	saved := &storedResult{stamp: thisBuild, Result: res, Dual: dual}
	e.saveResult(name, saved, s.opt.MaxSavedResults)
	s.storePut(resultPrefix+e.key+"/"+name, saved)
}

// reloadFromStore rebuilds the in-memory state a restart lost: every
// persisted circuit is re-materialized into the instance cache (in
// first-insertion order — the LRU keeps the most recently persisted
// CacheSize instances), then every persisted saved result of this build's
// numerics is replayed onto its circuit. Records whose circuit fell off
// the cache (or whose spec no longer builds) are skipped, not fatal: the
// store is a corpus, not a ledger, and a later register of the same
// content re-attaches it. Saved results of other numerics are skipped and
// counted: served as warm-start seeds or exports, they would pass off
// another solver's bits as this one's.
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
		if _, _, err := s.cache.getOrBuild(spec); err != nil {
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
		if v.foreign() {
			s.stats.addForeignResult()
			continue
		}
		e.saveResult(name, &v, s.opt.MaxSavedResults)
		s.stats.addReloadedResult()
	}
}

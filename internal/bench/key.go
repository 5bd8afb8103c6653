package bench

// Instance identity and reuse hooks for long-running callers (the sizing
// service, batch drivers): a cached Instance is worth reusing only when
// every input that shaped it — the netlist, the geometry seed, and the
// whole pipeline configuration — is identical, so the cache key must cover
// all of them. The fingerprints below are canonical (defaults are filled
// before encoding, floats print shortest-round-trip), so two option values
// that elaborate identically hash identically.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/rc"
)

// Fingerprint returns a canonical text encoding of the pipeline options.
// Defaults are filled first, so the zero value and an explicit
// spelled-out default produce the same fingerprint; float fields use the
// shortest round-trippable representation, so distinct values never
// collide. The encoding is stable input to the instance cache keys
// (NetlistKey, SpecKey) — changing it invalidates every cached instance,
// nothing more.
func (o PipelineOptions) Fingerprint() string {
	o.fill()
	return fmt.Sprintf("tech=%v|patterns=%d|channel=%d|pitch=%v|overlap=%v|ordering=%d|simweights=%t|init=%v|wls=%v",
		*o.Tech, o.Patterns, o.ChannelSize, o.Pitch, o.OverlapFrac,
		o.Ordering, o.SimilarityWeights, o.InitSize, o.WireLengthScale)
}

// NetlistKey is the instance-cache key for a parsed netlist upload: a
// SHA-256 over the raw netlist bytes, the geometry seed, and the pipeline
// fingerprint. Identical uploads with identical settings elaborate to
// bit-identical instances (every pipeline stage is deterministic in these
// inputs), so one cached instance can serve them all.
func NetlistKey(raw []byte, seed int64, opt PipelineOptions) string {
	h := sha256.New()
	h.Write(raw)
	fmt.Fprintf(h, "|seed=%d|%s", seed, opt.Fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// SpecKey is the instance-cache key for a synthetic circuit: a SHA-256
// over the full spec (name, statistics, seed) and the pipeline
// fingerprint.
func SpecKey(spec Spec, opt PipelineOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "spec=%+v|%s", spec, opt.Fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// GridKey is the instance-cache key for a GridInstance mesh: a SHA-256
// over the mesh shape. The construction has no other inputs (no seed, no
// pipeline options), so the shape alone identifies the instance bitwise
// across processes — the property the distributed sizing farm leans on
// when a worker materializes its own replica of a coordinator's circuit.
func GridKey(width, layers int, coupled bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "grid|width=%d|layers=%d|coupled=%t", width, layers, coupled)
	return hex.EncodeToString(h.Sum(nil))
}

// Replica returns a fresh evaluator over the instance's topology (graph,
// coupling CSR, level buckets and constant stripes, all shared and
// read-only after construction), seeded with the instance evaluator's
// current sizes (the Init uniform sizes unless the caller mutated them).
// It is PerturbedReplica at the nominal technology, which shares the
// instance's topology instead of rebuilding it. Solves mutate their
// evaluator, so concurrent or repeated solves against one cached instance
// should each run on a replica — as every cell of a plan does — leaving
// the instance's own evaluator (and with it DeriveBounds) untouched.
func (inst *Instance) Replica() (*rc.Evaluator, error) {
	return inst.PerturbedReplica(rc.Nominal())
}

// PerturbedReplica is Replica under a technology perturbation: a fresh
// solo evaluator whose per-node constants are the instance's scaled by p
// (rc.Perturb — R/C/threshold corner scalars), seeded with the instance
// evaluator's current sizes. The structural arrays (graph, coupling CSR,
// level buckets) are shared with the instance's evaluator; only the
// constant stripes are re-derived, so a corner or Monte-Carlo sample
// costs a constant stripe set, not a new elaboration.
func (inst *Instance) PerturbedReplica(p rc.Perturb) (*rc.Evaluator, error) {
	ev, err := inst.Eval.ScaledReplica(p)
	if err != nil {
		return nil, err
	}
	if err := ev.SetSizes(inst.Eval.X); err != nil {
		return nil, err
	}
	return ev, nil
}

// Package lagrange holds the Lagrange-multiplier state of the paper's
// Section 4: one multiplier λⱼᵢ per circuit-graph edge (timing weights),
// β for the power constraint, and γ for the crosstalk constraint.
//
// Theorem 3 (the Kirchhoff-current-law analogue) requires flow conservation
// Σ_{k∈output(i)} λᵢₖ = Σ_{j∈input(i)} λⱼᵢ at every node except source and
// sink. ProjectFlow restores this after a subgradient step with one reverse
// topological sweep that rescales each node's in-edge multipliers to match
// its (already final) out-edge sum, preserving non-negativity and the
// relative weights the subgradient established — timing pressure flows
// backward from the sink's delay-violation edges.
package lagrange

import (
	"math"

	"repro/internal/circuit"
)

type edgeRef struct {
	node int32 // head node whose in-edge list holds the multiplier
	pos  int32 // index within that in-edge list
}

// Multipliers is the full multiplier state for one circuit graph.
type Multipliers struct {
	g *circuit.Graph
	// Edge[i][k] is λ for the k-th in-edge of node i (parallel to g.In(i)).
	Edge [][]float64
	// Beta is the power multiplier, Gamma the crosstalk multiplier.
	Beta, Gamma float64
	// Trust is the per-step multiplicative corridor of every step: a
	// positive multiplier may change by at most this factor (and at least
	// its inverse) per step. A value of 1 or less means the default of 2.
	// Shrinking it toward 1 over iterations turns adaptive-step oscillation
	// into geometric convergence.
	Trust float64

	out [][]edgeRef // out-edge multiplier locations per node
}

// New allocates multipliers for the graph, with every edge multiplier set
// to init (β and γ start at zero; set them directly).
func New(g *circuit.Graph, init float64) *Multipliers {
	nn := g.NumNodes()
	m := &Multipliers{
		g:    g,
		Edge: make([][]float64, nn),
		out:  make([][]edgeRef, nn),
	}
	for i := 0; i < nn; i++ {
		in := g.In(i)
		m.Edge[i] = make([]float64, len(in))
		for k := range in {
			m.Edge[i][k] = init
			j := int(in[k])
			m.out[j] = append(m.out[j], edgeRef{int32(i), int32(k)})
		}
	}
	return m
}

// NodeSums fills dst[i] with the merged node multiplier
// λᵢ = Σ_{j∈input(i)} λⱼᵢ of Theorem 4 (dst must have NumNodes entries).
func (m *Multipliers) NodeSums(dst []float64) {
	m.NodeSumsRange(dst, 0, len(m.Edge))
}

// NodeSumsRange is NodeSums restricted to nodes [lo, hi). Each node's sum
// is independent, so disjoint ranges may be filled concurrently.
func (m *Multipliers) NodeSumsRange(dst []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for _, v := range m.Edge[i] {
			s += v
		}
		dst[i] = s
	}
}

// SinkFlow returns λ_m = Σ_{j∈input(m)} λⱼm, the total timing flow, which
// multiplies the −A0 constant of the dual function.
func (m *Multipliers) SinkFlow() float64 {
	s := 0.0
	for _, v := range m.Edge[m.g.SinkID()] {
		s += v
	}
	return s
}

// StepDelayRange applies the paper's A4 update to the in-edge multipliers
// of head nodes [lo, hi):
//
//	λⱼm += ρ·(aⱼ − A0)/A0              (sink edges)
//	λⱼᵢ += ρ·(aⱼ + Dᵢ − aᵢ)/A0         (component edges)
//	λ₀ᵢ += ρ·(Dᵢ − aᵢ)/A0              (driver edges)
//
// then clamps at zero. A and D are the arrival-time and delay vectors of
// the current LRS solution. Each violation is normalized by A0 and clamped
// to [−1, 1] (a scale-free trust region that makes one step size work
// across circuits and prevents overshoot on the large initial violations),
// and a positive multiplier moves at most within the Trust corridor. A
// node's update reads the shared arrival/delay vectors and writes only
// that node's in-edge multipliers, so disjoint ranges may step
// concurrently.
func (m *Multipliers) StepDelayRange(a, d []float64, a0, rho float64, lo, hi int) {
	g := m.g
	sink := g.SinkID()
	scale := 1.0
	if a0 > 0 {
		scale = 1 / a0
	}
	trust := m.trust()
	for i := lo; i < hi; i++ {
		in := g.In(i)
		for k := range in {
			j := int(in[k])
			var viol float64
			switch {
			case i == sink:
				viol = a[j] - a0
			case j == 0: // driver i's source edge
				viol = d[i] - a[i]
			default:
				viol = a[j] + d[i] - a[i]
			}
			viol = math.Max(-1, math.Min(1, viol*scale))
			m.Edge[i][k] = stepValue(m.Edge[i][k], rho*viol, trust)
		}
	}
}

func (m *Multipliers) trust() float64 {
	if m.Trust > 1 {
		return m.Trust
	}
	return 2
}

// StepBeta updates the power multiplier with the same trust-region rules
// as StepDelayRange.
func (m *Multipliers) StepBeta(violation, rho, norm float64) {
	m.Beta = StepScalar(m.Beta, violation, rho, norm, m.trust())
}

// StepGamma updates the crosstalk multiplier.
func (m *Multipliers) StepGamma(violation, rho, norm float64) {
	m.Gamma = StepScalar(m.Gamma, violation, rho, norm, m.trust())
}

// StepScalar applies a clamped subgradient step to a scalar multiplier and
// returns the new value: v' = max(0, v + ρ·clamp(violation/norm, −1, 1)),
// with the change confined to the [v/trust, v·trust] corridor, matching
// StepDelayRange. A norm of zero or less leaves the violation unscaled.
func StepScalar(v, violation, rho, norm, trust float64) float64 {
	if norm > 0 {
		violation = math.Max(-1, math.Min(1, violation/norm))
	}
	return stepValue(v, rho*violation, trust)
}

// stepValue applies an additive multiplier update, confined to
// [v/trust, v·trust] for positive v: large adaptive steps (the Polyak
// rule) otherwise slam a multiplier to zero and rebound past the optimum
// in a period-2 cycle; the factor corridor turns that into geometric
// convergence while still allowing growth from zero.
func stepValue(v, delta, trust float64) float64 {
	nv := v + delta
	if v > 0 {
		if nv > trust*v {
			nv = trust * v
		} else if nv < v/trust {
			nv = v / trust
		}
	}
	if nv < 0 {
		return 0
	}
	return nv
}

// DelayGradFillRange writes each head node's active normalized squared
// subgradient contribution Σ_k (violᵢₖ/A0)² into dst[i] for i ∈ [lo, hi),
// skipping coordinates where the multiplier is zero and the constraint is
// slack (the projected subgradient is zero there). The Polyak step reads
// the total as ‖h‖². Each node touches only its own dst entry, so disjoint
// ranges may be filled concurrently; a serial DelayGradNormSqFrom fold
// over dst then yields a total independent of the partitioning.
func (m *Multipliers) DelayGradFillRange(a, d []float64, a0 float64, dst []float64, lo, hi int) {
	g := m.g
	sink := g.SinkID()
	for i := lo; i < hi; i++ {
		in := g.In(i)
		s := 0.0
		for k := range in {
			j := int(in[k])
			var viol float64
			switch {
			case i == sink:
				viol = a[j] - a0
			case j == 0:
				viol = d[i] - a[i]
			default:
				viol = a[j] + d[i] - a[i]
			}
			if viol < 0 && m.Edge[i][k] == 0 {
				continue
			}
			n := viol / a0
			s += n * n
		}
		dst[i] = s
	}
}

// DelayGradNormSqFrom folds per-node contributions in index order — the
// deterministic reduction shared by the serial and sharded gradient paths.
func DelayGradNormSqFrom(perNode []float64) float64 {
	sum := 0.0
	for _, v := range perNode {
		sum += v
	}
	return sum
}

// ProjectFlow restores Theorem 3's flow conservation with one reverse
// topological sweep: each node's in-edge multipliers are rescaled so their
// sum equals the node's (final) out-edge sum. Sink in-edges are free
// variables and are left untouched; source out-edges are each node's
// in-flow and follow from conservation at the drivers.
func (m *Multipliers) ProjectFlow() {
	nn := m.g.NumNodes()
	for i := nn - 2; i >= 1; i-- {
		outSum := 0.0
		for _, r := range m.out[i] {
			outSum += m.Edge[r.node][r.pos]
		}
		in := m.Edge[i]
		if len(in) == 0 {
			continue
		}
		inSum := 0.0
		for _, v := range in {
			inSum += v
		}
		switch {
		case outSum == 0:
			for k := range in {
				in[k] = 0
			}
		case inSum > 0:
			s := outSum / inSum
			for k := range in {
				in[k] *= s
			}
		default: // no information: distribute evenly
			even := outSum / float64(len(in))
			for k := range in {
				in[k] = even
			}
		}
	}
}

// ScaleAll multiplies every multiplier (edges, β, γ) by f, moving along
// the ray t·μ in multiplier space. Flow conservation is preserved.
func (m *Multipliers) ScaleAll(f float64) {
	for i := range m.Edge {
		for k := range m.Edge[i] {
			m.Edge[i][k] *= f
		}
	}
	m.Beta *= f
	m.Gamma *= f
}

// MemoryBytes returns the analytic footprint for Figure-10 accounting.
func (m *Multipliers) MemoryBytes() int {
	b := 0
	for i := range m.Edge {
		b += len(m.Edge[i])*8 + len(m.out[i])*8
	}
	return b + 16
}

// Topology scaling: derived per-replica technology perturbations.
//
// A process corner or a Monte-Carlo sample is the same circuit under
// scaled technology constants — every effective resistance multiplied by
// one scalar, every capacitance (unit, fringe, fixed load, coupling) by
// another, and gate/driver resistances additionally by a threshold
// scalar (a higher threshold voltage weakens drive current, which this
// RC model sees as extra effective gate resistance). Deriving a scaled
// topo re-derives only the per-node constant arrays; everything
// structural — the graph, the kinds, the coupling CSR indices, the level
// buckets — is shared with the base topo, so K perturbed replicas cost K
// sets of constant arrays, not K topologies.
//
// Determinism: the scaled arrays are scalar products of the base arrays
// in index order, so deriving the same Perturb from the same base topo
// always yields bit-identical constants — two replicas scaled with the
// same Perturb evaluate identically, bit for bit. The nominal Perturb
// multiplies by exactly 1.0, which is exact in floating point: a nominal
// scaled topo equals the base topo bitwise.
package rc

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// Perturb is one technology perturbation: scalar multipliers on the
// per-node constants of a topology. The zero value is invalid — use
// Nominal() for the identity perturbation.
type Perturb struct {
	// R multiplies every effective-resistance constant (wires, gates,
	// drivers).
	R float64
	// C multiplies every capacitance constant: unit capacitances,
	// fringes, fixed loads, and the coupling model (c̃, and with it ĉ and
	// the constant offset).
	C float64
	// Threshold additionally multiplies gate and driver resistances — the
	// threshold-voltage corner's drive-strength proxy. Wires are
	// unaffected.
	Threshold float64
}

// Nominal returns the identity perturbation.
func Nominal() Perturb { return Perturb{R: 1, C: 1, Threshold: 1} }

// IsNominal reports whether p is exactly the identity perturbation.
func (p Perturb) IsNominal() bool { return p == Nominal() }

// Validate rejects non-positive or non-finite scalars. NaN fails every
// ordered comparison, so the !(v > 0) form catches it alongside zero and
// negatives.
func (p Perturb) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"R", p.R}, {"C", p.C}, {"Threshold", p.Threshold}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("rc: perturbation scalar %s must be positive and finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// scaled derives the perturbed topo: fresh per-node constant arrays
// (scalar products of the base arrays, index order), a scaled coupling
// set for the metric queries, and every structural array shared with t.
func (t *topo) scaled(p Perturb) (*topo, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.IsNominal() {
		return t, nil
	}
	nn := t.g.NumNodes()
	nt := &topo{
		g: t.g,
		// Shared structure.
		kind:     t.kind,
		coupled:  t.coupled,
		nbrOff:   t.nbrOff,
		nbrIdx:   t.nbrIdx,
		lvlOff:   t.lvlOff,
		lvlNodes: t.lvlNodes,
		// Re-derived constants.
		cUnit:  make([]float64, nn),
		fringe: make([]float64, nn),
		load:   make([]float64, nn),
		rcR:    make([]float64, nn),
	}
	for i := 0; i < nn; i++ {
		nt.cUnit[i] = p.C * t.cUnit[i]
		nt.fringe[i] = p.C * t.fringe[i]
		nt.load[i] = p.C * t.load[i]
		r := p.R
		if t.kind[i] == circuit.Gate || t.kind[i] == circuit.Driver {
			r *= p.Threshold
		}
		nt.rcR[i] = r * t.rcR[i]
	}
	cs, err := t.cs.Scaled(p.C)
	if err != nil {
		return nil, err
	}
	nt.cs = cs
	if t.coupled {
		nt.chat = make([]float64, nn)
		nt.ccst = make([]float64, nn)
		nt.nbrW = make([]float64, len(t.nbrW))
		for i := 0; i < nn; i++ {
			nt.chat[i] = p.C * t.chat[i]
			nt.ccst[i] = p.C * t.ccst[i]
		}
		for k := range t.nbrW {
			nt.nbrW[k] = p.C * t.nbrW[k]
		}
	}
	return nt, nil
}

// ScaledReplica returns a fresh solo evaluator over the receiver's
// topology perturbed by p, sharing every structural array (graph, CSR
// indices, level buckets) with the receiver and re-deriving only the
// per-node constants. Sizes start at the lower bounds, exactly like
// NewEvaluator; the receiver is untouched.
func (e *Evaluator) ScaledReplica(p Perturb) (*Evaluator, error) {
	t, err := e.t.scaled(p)
	if err != nil {
		return nil, err
	}
	return newEvaluatorOn(t), nil
}

// RCConst returns node i's effective-resistance constant tech.RC·r̂ᵢ as
// this evaluator's topology holds it — the base technology value for a
// plain evaluator, the scaled value for a perturbed replica. The solver
// reads its resize coefficients through this accessor so a perturbed
// replica is resized under its own technology.
func (e *Evaluator) RCConst(i int) float64 { return e.t.rcR[i] }

// Package tech holds the technology parameters and unit conventions used
// throughout the repository.
//
// Unit conventions (chosen so that every quantity is O(1)–O(1e6) in float64):
//
//	resistance   Ω        (ohm)
//	capacitance  fF       (femtofarad)
//	time         ps       (picosecond; 1 Ω·fF = 1e-3 ps, see RC)
//	length/size  µm       (micrometre; a component "size" is a width in µm)
//	area         µm²
//	power        mW
//	voltage      V
//	frequency    MHz
//
// The default parameter values are the ones reported in Section 5 of the
// paper: gates have unit-size resistance 10 Ω·µm and capacitance
// 0.16 fF/µm; wires 0.07 Ω·µm and 0.024 fF/µm per unit length; supply
// 3.3 V at 200 MHz; sizes bounded to [0.1, 10] µm.
package tech

import (
	"errors"
	"fmt"
)

// RC converts a resistance (Ω) times a capacitance (fF) product into ps.
// 1 Ω · 1 fF = 1e-15 s · 1e12 ps/s ... = 1e-3 ps.
const RC = 1e-3

// Params collects every technology constant the models need.
type Params struct {
	// GateResistance is the unit-size gate output resistance in Ω·µm:
	// a gate of size x µm has resistance GateResistance/x Ω.
	GateResistance float64
	// GateCapacitance is the gate input capacitance per µm of size, in fF/µm.
	GateCapacitance float64

	// WireResistance is the wire resistance per µm of length for a 1 µm
	// wide wire, in Ω·µm: a wire of length l and width x has resistance
	// WireResistance·l/x Ω.
	WireResistance float64
	// WireCapacitance is the wire area capacitance per µm of length per µm
	// of width, in fF/µm².
	WireCapacitance float64
	// WireFringe is the wire fringing capacitance per µm of length, in
	// fF/µm. It is independent of the wire width. The paper carries it as
	// the constant fⱼ in cⱼ = ĉⱼxⱼ + fⱼ.
	WireFringe float64

	// CouplingFringe is the default unit-length fringing capacitance f̂ᵢⱼ
	// between two parallel wires at 1 µm separation, in fF (the model
	// divides by the actual centre-to-centre distance dᵢⱼ in µm).
	CouplingFringe float64

	// Vdd is the supply voltage in V and Clock the working frequency in
	// MHz; dynamic power is P = Vdd²·f·Σc (converted to mW by PowerScale).
	Vdd   float64
	Clock float64

	// MinSize and MaxSize bound every gate and wire size (µm): the paper's
	// Lᵢ and Uᵢ.
	MinSize float64
	MaxSize float64

	// GateArea is the area per µm of gate size (µm²/µm); a gate of size x
	// occupies GateArea·x µm². WireArea plays the same role per µm of wire
	// length (so a wire of length l and width x occupies WireArea·l·x).
	GateArea float64
	WireArea float64

	// DriverResistance is the default input-driver resistance R_D in Ω,
	// and LoadCapacitance the default primary-output load C_L in fF.
	DriverResistance float64
	LoadCapacitance  float64
}

// Default returns the paper's experimental setup (Section 5).
func Default() Params {
	return Params{
		GateResistance:   10,    // Ω·µm
		GateCapacitance:  0.16,  // fF/µm
		WireResistance:   0.07,  // Ω·µm per µm length
		WireCapacitance:  0.024, // fF/µm²
		WireFringe:       0.010, // fF/µm (not stated in the paper; small)
		CouplingFringe:   0.080, // fF/µm at 1 µm spacing (calibrated)
		Vdd:              3.3,   // V
		Clock:            200,   // MHz
		MinSize:          0.1,   // µm
		MaxSize:          10,    // µm
		GateArea:         8,     // µm²/µm of size (calibrated)
		WireArea:         1,     // µm²/µm² (width × length)
		DriverResistance: 100,   // Ω
		LoadCapacitance:  20,    // fF
	}
}

// PowerScale converts Vdd²·f·C (V² · MHz · fF) into mW:
// V²·(1e6/s)·1e-15 F = 1e-9 W = 1e-6 mW.
const PowerScale = 1e-6

// Power returns the dynamic power in mW for a total switched capacitance
// c in fF under these parameters.
func (p Params) Power(c float64) float64 {
	return p.Vdd * p.Vdd * p.Clock * c * PowerScale
}

// Validate reports the first nonsensical parameter, if any.
func (p Params) Validate() error {
	type check struct {
		name string
		v    float64
	}
	for _, c := range []check{
		{"GateResistance", p.GateResistance},
		{"GateCapacitance", p.GateCapacitance},
		{"WireResistance", p.WireResistance},
		{"WireCapacitance", p.WireCapacitance},
		{"CouplingFringe", p.CouplingFringe},
		{"Vdd", p.Vdd},
		{"Clock", p.Clock},
		{"MinSize", p.MinSize},
		{"MaxSize", p.MaxSize},
		{"GateArea", p.GateArea},
		{"WireArea", p.WireArea},
		{"DriverResistance", p.DriverResistance},
	} {
		if c.v <= 0 {
			return fmt.Errorf("tech: %s must be positive, got %g", c.name, c.v)
		}
	}
	if p.WireFringe < 0 {
		return errors.New("tech: WireFringe must be non-negative")
	}
	if p.LoadCapacitance < 0 {
		return errors.New("tech: LoadCapacitance must be non-negative")
	}
	if p.MinSize >= p.MaxSize {
		return fmt.Errorf("tech: MinSize (%g) must be below MaxSize (%g)", p.MinSize, p.MaxSize)
	}
	return nil
}

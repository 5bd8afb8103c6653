package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultMatchesPaper(t *testing.T) {
	p := Default()
	if p.GateResistance != 10 {
		t.Errorf("gate resistance = %g, paper says 10 Ω·µm", p.GateResistance)
	}
	if p.GateCapacitance != 0.16 {
		t.Errorf("gate capacitance = %g, paper says 0.16 fF/µm", p.GateCapacitance)
	}
	if p.WireResistance != 0.07 {
		t.Errorf("wire resistance = %g, paper says 0.07 Ω·µm", p.WireResistance)
	}
	if p.WireCapacitance != 0.024 {
		t.Errorf("wire capacitance = %g, paper says 0.024 fF/µm", p.WireCapacitance)
	}
	if p.Vdd != 3.3 || p.Clock != 200 {
		t.Errorf("supply %gV @ %gMHz, paper says 3.3V @ 200MHz", p.Vdd, p.Clock)
	}
	if p.MinSize != 0.1 || p.MaxSize != 10 {
		t.Errorf("bounds [%g,%g], paper says [0.1,10] µm", p.MinSize, p.MaxSize)
	}
}

// TestPowerRoundTrip: dividing a power in mW by V²·f·PowerScale, the
// paper's P′ = P_B/(V²f) that core.Options.PowerCapBound takes, recovers
// the capacitance Power was given.
func TestPowerRoundTrip(t *testing.T) {
	p := Default()
	f := func(c float64) bool {
		c = math.Abs(c)
		if math.IsInf(c, 0) || math.IsNaN(c) || c > 1e12 {
			return true
		}
		back := p.Power(c) / (p.Vdd * p.Vdd * p.Clock * PowerScale)
		return math.Abs(back-c) <= 1e-9*math.Max(1, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerUnits(t *testing.T) {
	// 1 pF (1000 fF) switched at 3.3 V / 200 MHz is V²fC = 10.89 · 2e8 ·
	// 1e-12 W = 2.178 mW.
	p := Default()
	got := p.Power(1000)
	want := 3.3 * 3.3 * 200e6 * 1000e-15 * 1e3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Power(1000 fF) = %g mW, want %g", got, want)
	}
}

func TestRCUnits(t *testing.T) {
	// 100 Ω driving 1000 fF is 100 ns·1e-6 = 0.1 ns = 100 ps.
	if d := 100 * 1000 * RC; math.Abs(d-100) > 1e-12 {
		t.Errorf("100Ω·1000fF = %g ps, want 100", d)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero gate resistance", func(p *Params) { p.GateResistance = 0 }},
		{"negative gate cap", func(p *Params) { p.GateCapacitance = -1 }},
		{"zero wire resistance", func(p *Params) { p.WireResistance = 0 }},
		{"zero wire cap", func(p *Params) { p.WireCapacitance = 0 }},
		{"negative fringe", func(p *Params) { p.WireFringe = -0.1 }},
		{"zero coupling fringe", func(p *Params) { p.CouplingFringe = 0 }},
		{"zero vdd", func(p *Params) { p.Vdd = 0 }},
		{"zero clock", func(p *Params) { p.Clock = 0 }},
		{"inverted bounds", func(p *Params) { p.MinSize, p.MaxSize = 10, 0.1 }},
		{"equal bounds", func(p *Params) { p.MinSize, p.MaxSize = 1, 1 }},
		{"zero gate area", func(p *Params) { p.GateArea = 0 }},
		{"zero wire area", func(p *Params) { p.WireArea = 0 }},
		{"zero driver", func(p *Params) { p.DriverResistance = 0 }},
		{"negative load", func(p *Params) { p.LoadCapacitance = -1 }},
	}
	for _, c := range cases {
		p := Default()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
}

package api

import (
	"strings"
	"testing"
)

func TestCircuitSpecValidate(t *testing.T) {
	grid := &GridSpec{Width: 4, Layers: 3, Coupled: true}
	cases := []struct {
		name    string
		spec    CircuitSpec
		wantErr string
	}{
		{"synthetic", CircuitSpec{Key: "k", Synthetic: "c432"}, ""},
		{"netlist", CircuitSpec{Key: "k", Netlist: "INPUT(a)", Name: "up", Seed: 7}, ""},
		{"grid", CircuitSpec{Key: "k", Grid: grid}, ""},
		{"no source", CircuitSpec{Key: "k"}, "exactly one"},
		{"two sources", CircuitSpec{Key: "k", Synthetic: "c432", Grid: grid}, "exactly one"},
		{"all sources", CircuitSpec{Key: "k", Synthetic: "c432", Netlist: "x", Grid: grid}, "exactly one"},
		{"missing key", CircuitSpec{Synthetic: "c432"}, "cache key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

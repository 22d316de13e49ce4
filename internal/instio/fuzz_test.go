package instio

import (
	"strings"
	"testing"
)

// FuzzLoad: arbitrary bytes must never panic the loader — they either
// parse into a valid instance or return an error.
func FuzzLoad(f *testing.F) {
	f.Add(`{"version":1,"params":{"alpha":1,"beta":1,"radius_m":1,"charge_angle_deg":60,"receive_angle_deg":60,"slot_seconds":60},"chargers":[{"x":0,"y":0}],"tasks":[]}`)
	f.Add(`{"version":1}`)
	f.Add(`[]`)
	f.Add(``)
	f.Add(`{"version":1,"params":{"alpha":1,"beta":0,"radius_m":5,"charge_angle_deg":90,"receive_angle_deg":180,"slot_seconds":1},"chargers":[],"tasks":[{"x":1,"y":1,"phi_deg":0,"release_slot":0,"end_slot":2,"energy_j":10,"weight":1}]}`)
	// Negative-zero coordinates: hashes must be stable across the sign of
	// a zero (regression seed for the -0 canonicalization fix).
	f.Add(`{"version":1,"params":{"alpha":1,"beta":1,"radius_m":1,"charge_angle_deg":60,"receive_angle_deg":60,"slot_seconds":60},"chargers":[{"x":-0,"y":-0.0}],"tasks":[]}`)
	f.Fuzz(func(t *testing.T, body string) {
		in, err := Load(strings.NewReader(body))
		if err != nil {
			return
		}
		// Whatever loads must be valid and must round-trip.
		if err := in.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid instance: %v", err)
		}
		var sb strings.Builder
		if err := Save(&sb, in, ""); err != nil {
			t.Fatalf("Save of loaded instance failed: %v", err)
		}
		back, err := Load(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip of loaded instance failed: %v", err)
		}
		// Content addresses survive the round trip (Save may respell
		// floats, e.g. -0 for a negative zero; Canonical must not care).
		h1, err := FromInstance(in, "").Hash()
		if err != nil {
			t.Fatalf("hash of loaded instance: %v", err)
		}
		h2, err := FromInstance(back, "").Hash()
		if err != nil {
			t.Fatalf("hash of round-tripped instance: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("round trip changed the content address: %s vs %s", h1, h2)
		}
	})
}

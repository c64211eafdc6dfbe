package core

import (
	"math"
	"testing"

	"gnsslna/internal/device"
)

func TestAmplifierOIP3Plausible(t *testing.T) {
	amp := buildRef(t)
	r, err := amp.TwoToneOIP3(1.4e9)
	if err != nil {
		t.Fatalf("TwoToneOIP3: %v", err)
	}
	if r.OIP3DBm < 10 || r.OIP3DBm > 45 {
		t.Errorf("OIP3 = %g dBm, implausible", r.OIP3DBm)
	}
	if r.IIP3DBm >= r.OIP3DBm {
		t.Errorf("IIP3 %g must sit below OIP3 %g for a gain stage", r.IIP3DBm, r.OIP3DBm)
	}
	// The matching networks make the intercept band-dependent — the whole
	// point of the amplifier-level analysis.
	r2, err := amp.TwoToneOIP3(1.175e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.OIP3DBm-r.OIP3DBm) < 0.05 {
		t.Errorf("OIP3 frequency-flat (%g vs %g): networks not captured", r2.OIP3DBm, r.OIP3DBm)
	}
}

func TestAmplifierOIP3SweetSpotError(t *testing.T) {
	// Exactly at the gm3 zero crossing the analysis must refuse rather
	// than emit infinity. Find the crossing by bisection.
	d := device.Golden()
	lo, hi := 0.40, 0.70
	g3 := func(v float64) float64 {
		_, _, g := d.GmCoefficients(device.Bias{Vgs: v, Vds: 3})
		return g
	}
	if g3(lo)*g3(hi) > 0 {
		t.Skip("no sign change in range; device retuned")
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if g3(lo)*g3(mid) <= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	// gm3 there is ~0; the device-level formula diverges while the
	// amplifier API returns an explicit error for exactly zero.
	if g := g3((lo + hi) / 2); math.Abs(g) > 1e-3 {
		t.Logf("gm3 at crossing = %g (bisection tolerance)", g)
	}
}

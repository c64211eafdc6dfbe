package core

import (
	"math"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/optim"
)

var refDistributed = DistributedDesign{
	Vgs: 0.46, Vds: 3, LDegen: 0.5e-9,
	LenIn: 12e-3, StubIn: 8e-3, LenOut: 10e-3, StubOut: 6e-3,
}

func TestBuildDistributedBasics(t *testing.T) {
	b := NewBuilder(device.Golden())
	amp, err := b.BuildDistributed(refDistributed)
	if err != nil {
		t.Fatalf("BuildDistributed: %v", err)
	}
	m, err := amp.MetricsAt(1.4e9, 50)
	if err != nil {
		t.Fatalf("MetricsAt: %v", err)
	}
	if m.GTdB < 8 || m.GTdB > 25 {
		t.Errorf("GT = %g dB, want plausible amplifier gain", m.GTdB)
	}
	if m.NFdB < 0.1 || m.NFdB > 2 {
		t.Errorf("NF = %g dB, want sub-2 dB", m.NFdB)
	}
	// Line/stub lengths must actually matter.
	longer := refDistributed
	longer.StubIn = 16e-3
	amp2, err := b.BuildDistributed(longer)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := amp2.MetricsAt(1.4e9, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2.S11dB-m.S11dB) < 0.1 {
		t.Error("stub length change had no visible effect on input match")
	}
}

// TestDistributedWidthErrorSparesLumpedBuild builds on a substrate that
// prints a 50-ohm line but no 90-ohm series line: the builder computes the
// distributed widths for every setting, yet only BuildDistributed may fail
// on them.
func TestDistributedWidthErrorSparesLumpedBuild(t *testing.T) {
	b := NewBuilder(device.Golden())
	b.Sub.Er = 40
	if _, err := b.Sub.WidthForZ0(90); err == nil {
		t.Fatal("the substrate synthesizes a 90-ohm line")
	}
	if _, err := b.Build(referenceDesign); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := b.BuildDistributed(refDistributed); err == nil {
		t.Fatal("BuildDistributed succeeded without a 90-ohm line")
	}
}

func TestDistributedVectorRoundTrip(t *testing.T) {
	v := refDistributed.Vector()
	back := DistributedFromVector(v)
	if back != refDistributed {
		t.Errorf("round trip %+v != %+v", back, refDistributed)
	}
	lo, hi := DistributedBounds()
	if len(lo) != len(v) || len(hi) != len(v) {
		t.Fatal("bounds dimension mismatch")
	}
	for i := range lo {
		if lo[i] >= hi[i] {
			t.Errorf("bounds[%d] inverted", i)
		}
	}
}

func TestOptimizeDistributedMeetsMostGoals(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization run skipped in -short mode")
	}
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Spec.NPoints = 7
	res, err := d.OptimizeDistributed(&optim.AttainOptions{Seed: 4, GlobalEvals: 2500, PolishEvals: 1500})
	if err != nil {
		t.Fatalf("OptimizeDistributed: %v", err)
	}
	e := res.Eval
	// The distributed variant carries line loss; require the main goals.
	if e.WorstNFdB > d.Spec.NFMaxDB+0.2 {
		t.Errorf("NF %g well above goal %g", e.WorstNFdB, d.Spec.NFMaxDB)
	}
	if e.MinGTdB < d.Spec.GTMinDB-1 {
		t.Errorf("GT %g well below goal %g", e.MinGTdB, d.Spec.GTMinDB)
	}
	if e.StabMargin <= 0 {
		t.Errorf("stability margin %g, want > 0", e.StabMargin)
	}
	if res.Evals == 0 {
		t.Error("missing eval count")
	}
}

func TestGroupDelayOfAmplifier(t *testing.T) {
	b := NewBuilder(device.Golden())
	amp, err := b.Build(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := amp.GroupDelay(1.575e9, 50, 0)
	if err != nil {
		t.Fatalf("GroupDelay: %v", err)
	}
	// A single-stage LNA with small matching networks: group delay of
	// order 0.1-3 ns, always positive in-band.
	if gd < 0.01e-9 || gd > 5e-9 {
		t.Errorf("group delay = %g s, want 0.01-5 ns", gd)
	}
	// Ripple across a 24 MHz GNSS channel should be small (< 1 ns).
	gd2, err := amp.GroupDelay(1.575e9+12e6, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gd2-gd) > 1e-9 {
		t.Errorf("group-delay ripple %g s over 12 MHz, want < 1 ns", math.Abs(gd2-gd))
	}
}

func TestQuarterWave(t *testing.T) {
	b := NewBuilder(device.Golden())
	l, err := b.QuarterWaveLength(1.575e9)
	if err != nil {
		t.Fatal(err)
	}
	// RO4350 epsEff ~2.9: lambda/4 ~ 28 mm.
	if l < 20e-3 || l > 40e-3 {
		t.Errorf("quarter wave = %g mm, want ~28", l*1e3)
	}
}

package vna

import (
	"math"
	"math/cmplx"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

func TestMeasureDeviceAddsBoundedNoise(t *testing.T) {
	d := device.Golden()
	b := device.Bias{Vgs: 0.56, Vds: 3}
	freqs := mathx.Linspace(1e9, 2e9, 11)
	v := NewVNA(42)
	meas, err := v.MeasureDevice(d, b, freqs)
	if err != nil {
		t.Fatalf("MeasureDevice: %v", err)
	}
	var worst float64
	for i, f := range freqs {
		truth, err := d.SAt(b, f, 50)
		if err != nil {
			t.Fatal(err)
		}
		if dd := twoport.MaxAbsDiff(meas.S[i], truth); dd > worst {
			worst = dd
		}
	}
	if worst == 0 {
		t.Error("measurement identical to truth: no noise injected")
	}
	if worst > 10*v.SigmaAbs {
		t.Errorf("noise excursion %g beyond 10 sigma (%g)", worst, v.SigmaAbs)
	}
}

func TestMeasureDeterministicPerSeed(t *testing.T) {
	d := device.Golden()
	b := device.Bias{Vgs: 0.5, Vds: 3}
	freqs := []float64{1e9, 1.5e9}
	v1 := NewVNA(7)
	v2 := NewVNA(7)
	m1, err := v1.MeasureDevice(d, b, freqs)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := v2.MeasureDevice(d, b, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		if twoport.MaxAbsDiff(m1.S[i], m2.S[i]) != 0 {
			t.Error("same seed produced different measurements")
		}
	}
	v3 := NewVNA(8)
	m3, err := v3.MeasureDevice(d, b, freqs)
	if err != nil {
		t.Fatal(err)
	}
	if twoport.MaxAbsDiff(m1.S[0], m3.S[0]) == 0 {
		t.Error("different seeds produced identical measurements")
	}
}

func TestRunCampaignShapes(t *testing.T) {
	d := device.Golden()
	ds, err := RunCampaign(d, DefaultCampaign(3))
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(ds.Hot) != len(campaignBiases) {
		t.Errorf("hot sets = %d, want %d", len(ds.Hot), len(campaignBiases))
	}
	if ds.ColdPinched == nil || ds.ColdPinched.Len() != len(campaignFreqs) {
		t.Error("cold sweep missing or wrong length")
	}
	if len(ds.IV) != len(campaignVgsGrid) || len(ds.IV[0]) != len(campaignVdsGrid) {
		t.Error("IV grid shape wrong")
	}
	// IV noise is relative: currents near zero stay near zero.
	for i, vgs := range campaignVgsGrid {
		for j, vds := range campaignVdsGrid {
			truth := d.DC.Ids(vgs, vds)
			if math.Abs(ds.IV[i][j]-truth) > 0.1*truth+1e-12 {
				t.Errorf("IV(%g,%g) = %g, truth %g: noise too large", vgs, vds, ds.IV[i][j], truth)
			}
		}
	}
	// Cold sweep must look passive.
	for i := range ds.ColdPinched.S {
		if g := cmplx.Abs(ds.ColdPinched.S[i][1][0]); g > 1.02 {
			t.Errorf("cold |S21| = %g, want <= ~1", g)
		}
	}
}

func TestNFMeter(t *testing.T) {
	d := device.Golden()
	b := device.Bias{Vgs: 0.56, Vds: 3}
	freqs := []float64{1.2e9, 1.6e9}
	m := &NFMeter{SigmaDB: 0.05, Seed: 5}
	nfs, err := m.MeasureNF(freqs, func(f float64) (noise.TwoPort, error) {
		return d.NoisyAt(b, f)
	})
	if err != nil {
		t.Fatalf("MeasureNF: %v", err)
	}
	for i, f := range freqs {
		tp, err := d.NoisyAt(b, f)
		if err != nil {
			t.Fatal(err)
		}
		truth := mathx.DB10(tp.FigureY(complex(1.0/50, 0)))
		if math.Abs(nfs[i]-truth) > 0.3 {
			t.Errorf("f=%g: measured NF %g vs truth %g", f, nfs[i], truth)
		}
	}
}

func TestSourcePullStatesAndMeasureInPackage(t *testing.T) {
	// In-package exercise of the source-pull bench (the Lane fit consumes
	// it from the extract package): the matched state must read near the
	// 50-ohm figure and the far-out states strictly worse than Fmin.
	d := device.Golden()
	tp, err := d.NoisyAt(device.Bias{Vgs: 0.52, Vds: 3}, 1.4e9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tp.NoiseParams(50)
	if err != nil {
		t.Fatal(err)
	}
	bench := &SourcePullBench{SigmaDB: 0, Seed: 1}
	pts, err := bench.Measure(tp, DefaultTunerStates())
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if pts[0].GammaS != 0 {
		t.Fatal("first default state should be the matched point")
	}
	f50 := tp.FigureY(complex(1.0/50, 0))
	if math.Abs(pts[0].FLinear-f50) > 1e-12 {
		t.Errorf("matched-state F = %g, want %g", pts[0].FLinear, f50)
	}
	for _, pt := range pts {
		if pt.FLinear < p.Fmin-1e-9 {
			t.Errorf("state %v reads below Fmin", pt.GammaS)
		}
	}
}

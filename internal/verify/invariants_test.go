package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// sweepGrid is the deterministic frequency corpus the invariant sweeps run
// on: DC-adjacent through K-band, well past the design band on both sides.
func sweepGrid() []float64 {
	return mathx.Logspace(50e6, 20e9, 24)
}

// elementCorpus enumerates named passive elements spanning the component
// models the design flow composes from.
func elementCorpus() map[string]rfpassive.Element {
	return map[string]rfpassive.Element{
		"series 2.2nH":        rfpassive.NewChipInductor(2.2e-9, rfpassive.Series),
		"shunt 18nH":          rfpassive.NewChipInductor(18e-9, rfpassive.Shunt),
		"series 2.2pF":        rfpassive.NewChipCapacitor(2.2e-12, rfpassive.Series),
		"shunt 10pF":          rfpassive.NewChipCapacitor(10e-12, rfpassive.Shunt),
		"series 50ohm":        rfpassive.NewChipResistor(50, rfpassive.Series),
		"shunt 1kohm":         rfpassive.NewChipResistor(1e3, rfpassive.Shunt),
		"input-match cascade": inputMatchChain(),
	}
}

// inputMatchChain is a representative L-C-R composite like the amplifier's
// matching sections.
func inputMatchChain() rfpassive.Chain {
	return rfpassive.Chain{
		rfpassive.NewChipCapacitor(8.2e-12, rfpassive.Series),
		rfpassive.NewChipInductor(5.6e-9, rfpassive.Series),
		rfpassive.NewChipCapacitor(1.0e-12, rfpassive.Shunt),
		rfpassive.NewChipResistor(560, rfpassive.Shunt),
	}
}

// TestInvariantPassiveElements sweeps the element corpus: every component
// model must stay passive and reciprocal across the whole grid — a lossy
// chip part that amplifies or breaks symmetry is a model bug.
func TestInvariantPassiveElements(t *testing.T) {
	var r Report
	for name, e := range elementCorpus() {
		for _, f := range sweepGrid() {
			s, err := twoport.ABCDToS(e.ABCD(f), 50)
			if err != nil {
				t.Fatalf("%s: ABCD->S at %g Hz: %v", name, f, err)
			}
			ctx := fmt.Sprintf("%s @ %s", name, formatHz(f))
			r.Add(Passivity(ctx, s, TolPhysical))
			r.Add(Reciprocity(ctx, s, TolPhysical))
		}
	}
	if !r.OK() {
		t.Fatal(r.String())
	}
}

// TestInvariantPassiveElementNoise checks the thermal-noise description of
// every corpus element: physical noise parameters and NF >= Fmin over the
// Smith chart, at in-band and out-of-band spot frequencies.
func TestInvariantPassiveElementNoise(t *testing.T) {
	var r Report
	for name, e := range elementCorpus() {
		for _, f := range []float64{0.4e9, 1.575e9, 5e9} {
			p, err := e.Noisy(f).NoiseParams(50)
			if err != nil {
				t.Fatalf("%s: noise params at %g Hz: %v", name, f, err)
			}
			ctx := fmt.Sprintf("%s @ %s", name, formatHz(f))
			r.Add(NoisePhysical(ctx, p, TolPhysical))
			r.Add(NoiseFigureDominatesFmin(ctx, p, TolPhysical))
		}
	}
	if !r.OK() {
		t.Fatal(r.String())
	}
}

// TestInvariantDeviceNoise checks the embedded transistor's two-temperature
// noise model across a bias grid: four physical parameters and the
// NF(gammaS) >= Fmin bound everywhere.
func TestInvariantDeviceNoise(t *testing.T) {
	dev := device.Golden()
	var r Report
	for _, vgs := range []float64{0.35, 0.48, 0.65} {
		for _, vds := range []float64{1.5, 3.0, 4.2} {
			b := device.Bias{Vgs: vgs, Vds: vds}
			for _, f := range []float64{0.8e9, 1.575e9, 3e9, 6e9} {
				p, err := dev.NoiseParamsAt(b, f, 50)
				if err != nil {
					t.Fatalf("noise params at (%.2f, %.2f) V, %g Hz: %v", vgs, vds, f, err)
				}
				ctx := fmt.Sprintf("golden pHEMT (%.2f, %.2f) V @ %s", vgs, vds, formatHz(f))
				r.Add(NoisePhysical(ctx, p, TolPhysical))
				r.Add(NoiseFigureDominatesFmin(ctx, p, TolPhysical))
			}
		}
	}
	if !r.OK() {
		t.Fatal(r.String())
	}
}

// TestInvariantConversionClosure drives the S/Y/Z/h/ABCD/T representation
// round trips over structured samples plus a seeded random corpus, including
// the device's own S-parameters.
func TestInvariantConversionClosure(t *testing.T) {
	var r Report

	structured := map[string]twoport.Mat2{
		"thru":            {{0, 1}, {1, 0}},
		"series 50ohm":    mustS(t, twoport.SeriesZ(50), 50),
		"shunt 20mS":      mustS(t, twoport.ShuntY(0.02), 50),
		"series inductor": mustS(t, twoport.SeriesZ(complex(0.4, 70)), 50),
		"attenuator":      {{0.05, 0.5}, {0.5, 0.05}},
		"mismatched":      {{complex(0.4, -0.3), complex(0.2, 0.6)}, {complex(0.2, 0.6), complex(-0.5, 0.1)}},
	}
	for name, s := range structured {
		r.Add(ConversionClosure(name, s, 50, 1e-8))
	}

	dev := device.Golden()
	for _, f := range []float64{0.5e9, 1.575e9, 6e9} {
		s, err := dev.SAt(device.Bias{Vgs: 0.48, Vds: 3}, f, 50)
		if err != nil {
			t.Fatalf("device S at %g Hz: %v", f, err)
		}
		r.Add(ConversionClosure("golden pHEMT @ "+formatHz(f), s, 50, 1e-8))
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		var s twoport.Mat2
		for rr := 0; rr < 2; rr++ {
			for c := 0; c < 2; c++ {
				s[rr][c] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
				if i%2 == 1 {
					s[rr][c] *= 3 // active-magnitude samples
				}
			}
		}
		r.Add(ConversionClosure(fmt.Sprintf("random #%d", i), s, 50, 1e-7))
	}

	if !r.OK() {
		t.Fatal(r.String())
	}
}

func mustS(t *testing.T, abcd twoport.Mat2, z0 float64) twoport.Mat2 {
	t.Helper()
	s, err := twoport.ABCDToS(abcd, z0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInvariantSweepGrids checks every frequency grid the flow builds —
// linear in-band sweeps, log stability scans, the design band itself — for
// strict monotonicity and finiteness.
func TestInvariantSweepGrids(t *testing.T) {
	var r Report
	lo, hi := core.DesignBand()
	r.Add(FrequencyGrid("design band edges", []float64{lo, hi}))
	r.Add(FrequencyGrid("in-band linspace", mathx.Linspace(lo, hi, 11)))
	r.Add(FrequencyGrid("stability logspace", mathx.Logspace(0.2e9, 6e9, 9)))
	r.Add(FrequencyGrid("sweep corpus", sweepGrid()))
	if !r.OK() {
		t.Fatal(r.String())
	}
}

// TestInvariantFiniteOverDesignBox evaluates the lumped design box — all 64
// corners, the center, and seeded interior samples — and demands every
// graded objective be finite. Unbuildable designs may return an error, but a
// successful evaluation must never hand the optimizer NaN or Inf.
func TestInvariantFiniteOverDesignBox(t *testing.T) {
	d := core.NewDesigner(core.NewBuilder(device.Golden()))
	d.Spec.NPoints = 5
	lo, hi := core.DesignBounds()
	var r Report
	graded, failed := 0, 0
	for _, x := range boxSamples(lo, hi, 24) {
		ev, err := d.Evaluate(core.DesignFromVector(x))
		if err != nil {
			failed++
			continue
		}
		graded++
		ctx := fmt.Sprintf("lumped design %v", x)
		named := map[string]float64{"IdsA": ev.IdsA, "PdcW": ev.PdcW}
		for i, v := range ev.Objectives() {
			named[core.ObjectiveNames()[i]] = v
		}
		r.Add(Finite(ctx, named))
	}
	if graded == 0 {
		t.Fatalf("no design in the box could be evaluated (%d failures)", failed)
	}
	if !r.OK() {
		t.Fatal(r.String())
	}
}

// TestInvariantFiniteOverDistributedBox is the same guarantee over the
// 7-dimensional distributed (microstrip) search box.
func TestInvariantFiniteOverDistributedBox(t *testing.T) {
	d := core.NewDesigner(core.NewBuilder(device.Golden()))
	d.Spec.NPoints = 5
	lo, hi := core.DistributedBounds()
	var r Report
	graded, failed := 0, 0
	for _, x := range boxSamples(lo, hi, 24) {
		ev, err := d.EvaluateDistributed(core.DistributedFromVector(x))
		if err != nil {
			failed++
			continue
		}
		graded++
		ctx := fmt.Sprintf("distributed design %v", x)
		named := map[string]float64{"IdsA": ev.IdsA, "PdcW": ev.PdcW}
		for i, v := range ev.Objectives() {
			named[core.ObjectiveNames()[i]] = v
		}
		r.Add(Finite(ctx, named))
	}
	if graded == 0 {
		t.Fatalf("no design in the box could be evaluated (%d failures)", failed)
	}
	if !r.OK() {
		t.Fatal(r.String())
	}
}

// boxSamples returns every corner of the [lo, hi] box, its center, and
// nRandom seeded interior points.
func boxSamples(lo, hi []float64, nRandom int) [][]float64 {
	n := len(lo)
	var out [][]float64
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n)
		for i := range x {
			if mask&(1<<i) != 0 {
				x[i] = hi[i]
			} else {
				x[i] = lo[i]
			}
		}
		out = append(out, x)
	}
	center := make([]float64, n)
	for i := range center {
		center[i] = (lo[i] + hi[i]) / 2
	}
	out = append(out, center)
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < nRandom; k++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		out = append(out, x)
	}
	return out
}

package extract

import (
	"math"
	"reflect"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
)

// referenceResiduals is Residuals as it was before the per-bias
// conductances were hoisted: SmallSignalAt of the candidate at every bias.
func referenceResiduals(b *SResidualBuilder, p []float64) []float64 {
	d := b.device(p)
	var out []float64
	for _, set := range b.ds.Hot {
		ss := d.SmallSignalAt(set.Bias)
		for k, f := range set.Net.Freqs {
			r := b.pointResiduals(ss, d.Ext, f, set.Net.S[k])
			out = append(out, r[:]...)
		}
	}
	return out
}

// TestHoistedConductancesMatchSmallSignalAt is the fence of the per-bias
// conductances: with fitExt off and on, for the golden DC model and a
// variant of every other model, Residuals and the bounded objective of the
// hoisted builder equal a reference that calls SmallSignalAt per bias, bit
// for bit, at seeded candidates.
func TestHoistedConductancesMatchSmallSignalAt(t *testing.T) {
	ds := testDataset(t, 5)
	rng := randFrom(23)
	models := []device.DCModel{device.Golden().DC}
	for _, m := range device.AllModels() {
		lo, hi := m.Bounds()
		p := make([]float64, len(lo))
		for i := range p {
			p[i] = lo[i] + (0.3+0.4*rng.Float64())*(hi[i]-lo[i])
		}
		if err := m.SetParams(p); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for _, m := range models {
		for _, fitExt := range []bool{false, true} {
			b, err := NewSResidual(ds, m, device.Golden().Ext, fitExt)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := b.Bounds()
			for k := 0; k < 8; k++ {
				p := make([]float64, len(lo))
				for i := range p {
					p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
				}
				want := referenceResiduals(b, p)
				got := b.Residuals(p)
				if len(got) != len(want) {
					t.Fatalf("%s fitExt=%v: %d residuals, reference %d", m.Name(), fitExt, len(got), len(want))
				}
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s fitExt=%v candidate %d: residual %d = %v, reference %v",
							m.Name(), fitExt, k, i, got[i], want[i])
					}
				}
				if rms, ref := b.rmseBounded(p, math.Inf(1)), mathx.RMS(want); !sameBits(rms, ref) {
					t.Fatalf("%s fitExt=%v candidate %d: bounded RMSE %v, reference %v", m.Name(), fitExt, k, rms, ref)
				}
			}
		}
	}
}

// TestBoundedObjectivesDoNotAllocate pins the bounded S and DC objectives
// to zero allocations per evaluation: the candidate device is built by
// value and the DC grid scratch lives on the objective.
func TestBoundedObjectivesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	ds := testDataset(t, 1)
	golden := device.Golden()
	for _, fitExt := range []bool{false, true} {
		b, err := NewSResidual(ds, golden.DC, golden.Ext, fitExt)
		if err != nil {
			t.Fatal(err)
		}
		p := rfVector(golden)
		if fitExt {
			e := golden.Ext
			p = append(p, e.Rg, e.Rs, e.Rd, e.Lg, e.Ls, e.Ld)
		}
		if n := testing.AllocsPerRun(50, func() { b.rmseBounded(p, math.Inf(1)) }); n != 0 {
			t.Errorf("S objective (fitExt=%v) allocates %.1f times per evaluation, want 0", fitExt, n)
		}
	}
	scale := maxCurrent(ds)
	for _, m := range device.AllModels() {
		o := newDCObjective(m, ds, scale)
		p := m.Params()
		if n := testing.AllocsPerRun(50, func() { o.rmseBounded(p, math.Inf(1)) }); n != 0 {
			t.Errorf("%s DC objective allocates %.1f times per evaluation, want 0", m.Name(), n)
		}
	}
}

// TestLMResidualsDoNotAllocate pins the residual functions Levenberg-
// Marquardt calls n+2 times per iteration to zero allocations: each fit
// writes every residual vector into one buffer. Their values equal the
// fresh vectors the public Residuals returns.
func TestLMResidualsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	ds := testDataset(t, 1)
	golden := device.Golden()
	for _, fitExt := range []bool{false, true} {
		b, err := NewSResidual(ds, golden.DC, golden.Ext, fitExt)
		if err != nil {
			t.Fatal(err)
		}
		p := rfVector(golden)
		if fitExt {
			e := golden.Ext
			p = append(p, e.Rg, e.Rs, e.Rd, e.Lg, e.Ls, e.Ld)
		}
		resid := b.lmResiduals()
		if got, want := resid(p), b.Residuals(p); !reflect.DeepEqual(got, want) {
			t.Errorf("S residuals (fitExt=%v) differ from Residuals", fitExt)
		}
		if n := testing.AllocsPerRun(50, func() { resid(p) }); n != 0 {
			t.Errorf("S residuals (fitExt=%v) allocate %.1f times per call, want 0", fitExt, n)
		}
	}
	scale := maxCurrent(ds)
	for _, m := range device.AllModels() {
		o := newDCObjective(m, ds, scale)
		p := m.Params()
		buf := make([]float64, o.residualLen())
		if n := testing.AllocsPerRun(50, func() { o.residualsInto(buf, p) }); n != 0 {
			t.Errorf("%s DC residuals allocate %.1f times per call, want 0", m.Name(), n)
		}
	}
}

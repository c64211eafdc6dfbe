package extract

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkBounded asserts the optim.BoundedObjective contract for one call:
// got must be the full value when that is within bound (or bound is NaN),
// and otherwise the full value or something greater than bound. It reports
// whether the call stopped early.
func checkBounded(t *testing.T, what string, got, full, bound float64) (early bool) {
	t.Helper()
	if full <= bound || math.IsNaN(bound) {
		if !sameBits(got, full) {
			t.Errorf("%s, bound %v: got %v, want the full value %v", what, bound, got, full)
		}
		return false
	}
	if sameBits(got, full) {
		return false
	}
	if !(got > bound) {
		t.Errorf("%s, bound %v: early value %v does not exceed it (full %v)", what, bound, got, full)
	}
	return true
}

// TestBoundedObjectivesMatchFullResiduals pins the bounded S and DC
// objectives to the residual vectors LM uses: at +Inf they return
// mathx.RMS of the full residuals bit for bit, at the value itself they
// return it exactly, and below it they return something greater.
func TestBoundedObjectivesMatchFullResiduals(t *testing.T) {
	ds := testDataset(t, 1)
	golden := device.Golden()
	rng := randFrom(17)
	boxPoint := func(lo, hi []float64) []float64 {
		p := make([]float64, len(lo))
		for i := range p {
			p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		return p
	}

	b, err := NewSResidual(ds, golden.DC, golden.Ext, false)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := b.Bounds()
	cands := [][]float64{rfVector(golden)}
	for k := 0; k < 6; k++ {
		cands = append(cands, boxPoint(lo, hi))
	}
	// Without capacitances the intrinsic Y matrix is singular at every
	// point, so the candidate is scored by the unusable-candidate row.
	dead := append([]float64(nil), cands[0]...)
	dead[0], dead[1], dead[4], dead[6] = 0, 0, 0, 0
	if r := b.Residuals(dead); r[0] != 1e3 || r[len(r)-1] != 1e3 {
		t.Fatalf("capacitance-free candidate residuals %v ... %v, want the 1e3 row", r[0], r[len(r)-1])
	}
	cands = append(cands, dead)
	for i, p := range cands {
		want := mathx.RMS(b.Residuals(p))
		if got := b.rmseBounded(p, math.Inf(1)); !sameBits(got, want) {
			t.Errorf("S candidate %d: rmseBounded at +Inf = %v, want %v", i, got, want)
		}
		if got := b.RMSE(p); !sameBits(got, want) {
			t.Errorf("S candidate %d: RMSE = %v, want %v", i, got, want)
		}
		checkBounded(t, "S candidate", b.rmseBounded(p, want), want, want)
		if !checkBounded(t, "S candidate", b.rmseBounded(p, want/2), want, want/2) {
			t.Errorf("S candidate %d: a bound at half the value did not stop early", i)
		}
		checkBounded(t, "S candidate", b.rmseBounded(p, math.NaN()), want, math.NaN())
	}

	scale := maxCurrent(ds)
	for _, m := range device.AllModels() {
		o := newDCObjective(m, ds, scale)
		lo, hi := m.Bounds()
		for k := 0; k < 4; k++ {
			p := boxPoint(lo, hi)
			got := o.rmseBounded(p, math.Inf(1))
			want := mathx.RMS(o.residuals()) // m now holds p
			if !sameBits(got, want) {
				t.Errorf("%s candidate %d: bounded DC objective at +Inf = %v, want %v", m.Name(), k, got, want)
			}
			checkBounded(t, m.Name(), o.rmseBounded(p, want), want, want)
			checkBounded(t, m.Name(), o.rmseBounded(p, want/2), want, want/2)
		}
		// A vector SetParams rejects scores 1e9 at any bound.
		for _, bound := range []float64{math.Inf(1), 1} {
			if got := o.rmseBounded(lo[:1], bound); got != 1e9 {
				t.Errorf("%s: rejected parameters scored %v at bound %v, want 1e9", m.Name(), got, bound)
			}
		}
	}
}

// stageCalls tallies the objective calls of one bounded DE stage.
type stageCalls struct{ calls, early atomic.Int64 }

// TestThreeStepHonoursBoundedContract runs a real quick ThreeStep at two
// workers with every bounded DE objective wrapped in a checker that also
// computes the full value and asserts the contract on each call. Both fits
// must be covered, both must stop some trials early, and the extraction
// must return the same values as an unchecked run.
func TestThreeStepHonoursBoundedContract(t *testing.T) {
	ds := testDataset(t, 3)
	plain, err := ThreeStep(ds, device.NewAngelov(), quickConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}

	stages := map[string]*stageCalls{}
	orig := deBounded
	t.Cleanup(func() { deBounded = orig })
	deBounded = func(f optim.BoundedObjective, lo, hi []float64, opts *optim.DEOptions) (optim.Result, error) {
		st := &stageCalls{}
		stages[opts.Scope] = st
		checked := func(x []float64, bound float64) float64 {
			full := f(x, math.Inf(1))
			got := f(x, bound)
			st.calls.Add(1)
			if checkBounded(t, opts.Scope, got, full, bound) {
				st.early.Add(1)
			}
			return got
		}
		return orig(checked, lo, hi, opts)
	}
	res, err := ThreeStep(ds, device.NewAngelov(), quickConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range []string{"extract.step2.dcfit.de", "extract.step2.sfit.de"} {
		st := stages[scope]
		if st == nil || st.calls.Load() == 0 {
			t.Errorf("%s: the checker saw no calls", scope)
			continue
		}
		if st.early.Load() == 0 {
			t.Errorf("%s: no trial stopped early in %d calls", scope, st.calls.Load())
		}
	}
	if !sameBits(res.SRMSE, plain.SRMSE) || !sameBits(res.SRMSEAfterDE, plain.SRMSEAfterDE) ||
		!sameBits(res.DC.RelRMSE, plain.DC.RelRMSE) {
		t.Errorf("checked run SRMSE %v / %v / DC %v, unchecked %v / %v / %v",
			res.SRMSE, res.SRMSEAfterDE, res.DC.RelRMSE, plain.SRMSE, plain.SRMSEAfterDE, plain.DC.RelRMSE)
	}
}

// TestThreeStepReportsComputedShare checks the observability samples: one
// per bounded DE stage, each a share of residual points in (0, 1].
func TestThreeStepReportsComputedShare(t *testing.T) {
	var mu sync.Mutex
	samples := map[string][]float64{}
	cfg := quickConfig(4, 2)
	cfg.Observer = obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindSample {
			mu.Lock()
			samples[e.Scope] = append(samples[e.Scope], e.Value)
			mu.Unlock()
		}
	})
	if _, err := ThreeStep(testDataset(t, 4), device.NewAngelov(), cfg); err != nil {
		t.Fatal(err)
	}
	for _, scope := range []string{"extract.step2.sfit.computed", "extract.step2.dcfit.computed"} {
		v := samples[scope]
		if len(v) != 1 || !(v[0] > 0 && v[0] <= 1) {
			t.Errorf("%s samples = %v, want one value in (0, 1]", scope, v)
		}
	}
}

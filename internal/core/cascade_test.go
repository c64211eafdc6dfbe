package core

import (
	"math"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/noise"
	"gnsslna/internal/optim"
	"gnsslna/internal/twoport"
)

func TestTwoStageGainAndNoiseComposition(t *testing.T) {
	b := NewBuilder(device.Golden())
	ts, err := b.BuildTwoStage(referenceDesign, referenceDesign)
	if err != nil {
		t.Fatalf("BuildTwoStage: %v", err)
	}
	f := 1.4e9
	m1, err := ts.First.MetricsAt(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ts.MetricsAt(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Cascade gain within a few dB of the stage-gain sum (interstage
	// mismatch accounts for the difference).
	if d := math.Abs(mc.GTdB - 2*m1.GTdB); d > 4 {
		t.Errorf("cascade GT %g vs 2x stage %g: interstage mismatch %g dB too large",
			mc.GTdB, 2*m1.GTdB, d)
	}
	// Friis: cascade NF must exceed stage-1 NF but stay well below the sum.
	if mc.NFdB < m1.NFdB-1e-9 {
		t.Errorf("cascade NF %g below first-stage NF %g", mc.NFdB, m1.NFdB)
	}
	if mc.NFdB > m1.NFdB+0.5 {
		t.Errorf("cascade NF %g too far above first stage %g (Friis should protect it)",
			mc.NFdB, m1.NFdB)
	}
	// Power bookkeeping.
	if got, want := ts.PowerDissipation(), 2*ts.First.PowerDissipation(); math.Abs(got-want) > 1e-12 {
		t.Errorf("cascade power %g, want %g", got, want)
	}
}

func TestTwoStageFriisQuantitative(t *testing.T) {
	// The exact correlation-matrix cascade must agree with the Friis
	// formula evaluated with available gains when the interstage is
	// matched. We verify the cascade's F sits between stage-1 F and the
	// naive Friis bound computed with transducer gain (a lower gain than
	// GA, so the bound is conservative).
	b := NewBuilder(device.Golden())
	ts, err := b.BuildTwoStage(referenceDesign, referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	f := 1.4e9
	tp1, err := ts.First.NoisyAt(f)
	if err != nil {
		t.Fatal(err)
	}
	tpc, err := ts.NoisyAt(f)
	if err != nil {
		t.Fatal(err)
	}
	ys := complex(1.0/50, 0)
	f1 := tp1.FigureY(ys)
	fc := tpc.FigureY(ys)
	s1, err := tp1.S(50)
	if err != nil {
		t.Fatal(err)
	}
	ga1 := twoport.AvailableGain(s1, 0)
	bound := noise.Friis([]float64{f1, f1}, []float64{ga1, 1})
	if fc < f1 {
		t.Errorf("cascade F %g below stage F %g", fc, f1)
	}
	if fc > bound*1.05 {
		t.Errorf("cascade F %g exceeds Friis bound %g", fc, bound)
	}
}

func TestOptimizeTwoStageReaches30dB(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization run skipped in -short mode")
	}
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Spec.NPoints = 5
	spec := DefaultTwoStageSpec()
	spec.Spec.NPoints = 5
	res, err := d.OptimizeTwoStage(spec, &optim.AttainOptions{Seed: 6, GlobalEvals: 2000, PolishEvals: 1200})
	if err != nil {
		t.Fatalf("OptimizeTwoStage: %v", err)
	}
	if res.MinGTdB < 28 {
		t.Errorf("cascade gain %g dB, want >= 28", res.MinGTdB)
	}
	if res.WorstNFdB > 1.1 {
		t.Errorf("cascade NF %g dB, want ~< 1", res.WorstNFdB)
	}
	if res.StabMargin <= 0 {
		t.Errorf("cascade stability margin %g", res.StabMargin)
	}
	if res.Evals == 0 {
		t.Error("missing eval count")
	}
}

// TestOptimizeTwoStageWorkersIdentical is the regression test for the eval
// tally race: the objective runs on opts.Workers goroutines, so the counter
// must be atomic (`go test -race` flagged the plain increment at Workers
// 2). Any worker count must return the identical result, Evals included.
func TestOptimizeTwoStageWorkersIdentical(t *testing.T) {
	d := NewDesigner(NewBuilder(device.Golden()))
	spec := DefaultTwoStageSpec()
	spec.Spec.NPoints = 5
	run := func(workers int) TwoStageResult {
		res, err := d.OptimizeTwoStage(spec, &optim.AttainOptions{
			Seed: 3, GlobalEvals: 300, PolishEvals: 150, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(2)
	if serial != parallel {
		t.Fatalf("workers=2 result %+v differs from serial %+v", parallel, serial)
	}
	if serial.Evals == 0 {
		t.Fatal("missing eval count")
	}
}

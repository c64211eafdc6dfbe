package core

import (
	"math"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/optim"
)

func fastDesigner() *Designer {
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Spec.NPoints = 7
	return d
}

func TestEvaluateAggregatesExtremes(t *testing.T) {
	d := fastDesigner()
	ev, err := d.Evaluate(referenceDesign)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(ev.Points) != d.Spec.NPoints {
		t.Fatalf("points = %d, want %d", len(ev.Points), d.Spec.NPoints)
	}
	for _, p := range ev.Points {
		if p.NFdB > ev.WorstNFdB+1e-12 {
			t.Errorf("WorstNFdB %g misses point %g", ev.WorstNFdB, p.NFdB)
		}
		if p.GTdB < ev.MinGTdB-1e-12 {
			t.Errorf("MinGTdB %g misses point %g", ev.MinGTdB, p.GTdB)
		}
	}
	obj := ev.Objectives()
	if len(obj) != len(ObjectiveNames()) {
		t.Fatal("objective vector/name mismatch")
	}
	if obj[0] != ev.WorstNFdB || obj[1] != -ev.MinGTdB {
		t.Error("objective packing wrong")
	}
}

func TestOptimizeMeetsGoals(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization run skipped in -short mode")
	}
	d := fastDesigner()
	res, err := d.Optimize(&optim.AttainOptions{Seed: 3, GlobalEvals: 2500, PolishEvals: 1500})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Gamma > 0 {
		t.Errorf("gamma = %g: goals not met (eval %+v)", res.Gamma, res.Eval)
	}
	e := res.Eval
	if e.WorstNFdB > d.Spec.NFMaxDB {
		t.Errorf("NF %g exceeds goal %g", e.WorstNFdB, d.Spec.NFMaxDB)
	}
	if e.MinGTdB < d.Spec.GTMinDB {
		t.Errorf("GT %g below goal %g", e.MinGTdB, d.Spec.GTMinDB)
	}
	if e.WorstS11dB > d.Spec.S11MaxDB || e.WorstS22dB > d.Spec.S22MaxDB {
		t.Errorf("matching goals missed: S11 %g, S22 %g", e.WorstS11dB, e.WorstS22dB)
	}
	if e.StabMargin <= 0 {
		t.Errorf("stability margin %g, want > 0", e.StabMargin)
	}
	if e.PdcW > d.Spec.PdcMaxW {
		t.Errorf("Pdc %g W exceeds budget %g", e.PdcW, d.Spec.PdcMaxW)
	}
	// Snapping must not catastrophically break the design.
	s := res.SnappedEval
	if s.WorstNFdB > e.WorstNFdB+0.15 {
		t.Errorf("E24 snapping degraded NF too much: %g -> %g", e.WorstNFdB, s.WorstNFdB)
	}
	if s.StabMargin <= 0 {
		t.Errorf("snapped design unstable: margin %g", s.StabMargin)
	}
	if res.Evals == 0 {
		t.Error("evaluation count missing")
	}
}

func TestSnapToE24(t *testing.T) {
	d := fastDesigner()
	x := Design{Vgs: 0.5, Vds: 3, LIn: 5.3e-9, LDegen: 0.77e-9, LOut: 2.1e-9, COut: 0.93e-12}
	s := d.SnapToE24(x)
	// Chip elements snapped, continuous parameters untouched.
	if s.Vgs != x.Vgs || s.Vds != x.Vds || s.LDegen != x.LDegen {
		t.Error("snapping touched continuous parameters")
	}
	if s.LIn == x.LIn && s.LOut == x.LOut && s.COut == x.COut {
		t.Error("snapping changed nothing")
	}
	if math.Abs(s.LIn-5.1e-9) > 1e-12 {
		t.Errorf("LIn snapped to %g, want 5.1n", s.LIn)
	}
}

func TestSensitivityReportsAllParams(t *testing.T) {
	d := fastDesigner()
	sens, err := d.Sensitivity(referenceDesign, 0.05)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if len(sens) != 6 {
		t.Fatalf("entries = %d, want 6", len(sens))
	}
	var anyEffect bool
	for _, s := range sens {
		if s.Param == "" {
			t.Error("unnamed sensitivity entry")
		}
		if s.DeltaNFdB < 0 || s.DeltaGTdB < 0 {
			t.Error("negative sensitivity magnitude")
		}
		if s.DeltaNFdB > 0 || s.DeltaGTdB > 0 {
			anyEffect = true
		}
	}
	if !anyEffect {
		t.Error("no parameter shows any effect: sensitivity broken")
	}
	// Vgs should matter more for NF than COut does.
	if sens[0].DeltaNFdB < sens[5].DeltaNFdB {
		t.Logf("warning: Vgs NF sensitivity (%g) below COut (%g)", sens[0].DeltaNFdB, sens[5].DeltaNFdB)
	}
}

func TestYieldReasonable(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo skipped in -short mode")
	}
	d := fastDesigner()
	// Use a known-good design meeting goals with margin.
	res, err := d.Optimize(&optim.AttainOptions{Seed: 5, GlobalEvals: 2000, PolishEvals: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Yield(res.Design, 0.05, 60, 9)
	if err != nil {
		t.Fatalf("Yield: %v", err)
	}
	if rep.Trials != 60 {
		t.Errorf("trials = %d", rep.Trials)
	}
	if rep.PassRate < 0.5 {
		t.Errorf("yield = %g, expect a robust optimum (>= 0.5)", rep.PassRate)
	}
	if rep.NF95dB < res.Eval.WorstNFdB-1e-9 {
		t.Errorf("95th percentile NF %g below nominal %g", rep.NF95dB, res.Eval.WorstNFdB)
	}
	if rep.GT5dB > res.Eval.MinGTdB+1e-9 {
		t.Errorf("5th percentile GT %g above nominal %g", rep.GT5dB, res.Eval.MinGTdB)
	}
}

func TestDefaultSpecSane(t *testing.T) {
	s := DefaultSpec()
	if s.FLow >= s.FHigh || s.NFMaxDB <= 0 || s.GTMinDB <= 0 {
		t.Error("default spec malformed")
	}
	if s.S11MaxDB >= 0 || s.S22MaxDB >= 0 {
		t.Error("return-loss goals must be negative dB")
	}
	if len(s.points()) != s.NPoints {
		t.Error("points() length mismatch")
	}
	if len(s.stabPoints()) == 0 {
		t.Error("stability scan empty")
	}
}

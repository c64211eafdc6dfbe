package core

import (
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
)

// Allocation fences for the band engine and the evaluation memo: the whole
// point of the stamp-once/solve-many design is that the steady state runs
// out of reused slabs, so any new allocation on these paths is a
// performance regression the benchmarks would only show as noise. Pinned to
// exactly zero; run under `make verify` (the race pass skips them — the
// detector instruments allocations).

func allocFixture(t *testing.T) (*Amplifier, []float64) {
	t.Helper()
	b := NewBuilder(device.Golden())
	amp, err := b.Build(Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12})
	if err != nil {
		t.Fatal(err)
	}
	return amp, mathx.Linspace(1.1e9, 1.7e9, 11)
}

// TestMetricsBandIntoZeroAllocSteadyState pins the warmed band evaluation —
// compiled chains bound, slabs sized — to zero allocations per grid pass.
func TestMetricsBandIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	amp, freqs := allocFixture(t)
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	dst := make([]PointMetrics, len(freqs))
	if err := amp.MetricsBandInto(ws, dst, freqs, 50); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := amp.MetricsBandInto(ws, dst, freqs, 50); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MetricsBandInto steady state allocates %.1f times per pass, want 0", n)
	}
}

// TestMuBandIntoZeroAllocSteadyState pins the A-only stability scan the
// same way.
func TestMuBandIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	amp, freqs := allocFixture(t)
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	mus := make([]float64, len(freqs))
	if err := amp.muBandInto(ws, mus, freqs, 50); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := amp.muBandInto(ws, mus, freqs, 50); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("muBandInto steady state allocates %.1f times per pass, want 0", n)
	}
}

// TestMetricsAtZeroAllocSteadyState pins the per-point views: a warmed
// Amplifier.MetricsAt and TwoStage.MetricsAt run the band kernel on pooled
// workspaces whose chains stay compiled, so neither may allocate.
func TestMetricsAtZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	amp, freqs := allocFixture(t)
	ts, err := NewBuilder(device.Golden()).BuildTwoStage(amp.Design, amp.Design)
	if err != nil {
		t.Fatal(err)
	}
	for name, metricsAt := range map[string]func(f, z0 float64) (PointMetrics, error){
		"Amplifier": amp.MetricsAt,
		"TwoStage":  ts.MetricsAt,
	} {
		if _, err := metricsAt(freqs[0], 50); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := metricsAt(freqs[0], 50); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s.MetricsAt steady state allocates %.1f times per call, want 0", name, n)
		}
	}
}

// TestMetricsAtRebindZeroAlloc pins the single-shot pattern of the
// optimizer objectives, which build a fresh amplifier and evaluate it at one
// frequency: the pooled workspace recompiles its chains in place for each
// new amplifier, so alternating between two amplifiers allocates nothing.
func TestMetricsAtRebindZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	amp, freqs := allocFixture(t)
	d := amp.Design
	d.LIn, d.COut = 3.3e-9, 0.8e-12
	other, err := NewBuilder(device.Golden()).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	both := func() {
		for _, a := range [2]*Amplifier{amp, other} {
			if _, err := a.MetricsAt(freqs[0], 50); err != nil {
				t.Fatal(err)
			}
		}
	}
	both()
	if n := testing.AllocsPerRun(200, both); n != 0 {
		t.Errorf("MetricsAt alternating between two amplifiers allocates %.1f times per pair, want 0", n)
	}
}

// TestEvaluateMemoHitZeroAlloc pins the memo hit path: once a design is
// cached, re-evaluating it must not allocate — the serve workers lean on
// this for repeated-spec attempts.
func TestEvaluateMemoHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	d := NewDesigner(NewBuilder(device.Golden()))
	d.Memo = NewEvalMemo(64)
	x := Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	// Two warm-up evaluations: the doorkeeper admits a key on its second
	// miss, so the design is cached only after the second pass.
	for i := 0; i < 2; i++ {
		if _, err := d.Evaluate(x); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.Evaluate(x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("memo-hit Evaluate allocates %.1f times per call, want 0", n)
	}
}

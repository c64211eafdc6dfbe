package gnsslna

// One benchmark per reconstructed table/figure (E1-E9), regenerating the
// corresponding experiment end to end, plus micro-benchmarks of the
// numerical kernels the experiments lean on. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks use the Quick budgets; EXPERIMENTS.md records a
// full-budget run.

import (
	"runtime"
	"testing"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/experiments"
	"gnsslna/internal/extract"
	"gnsslna/internal/mathx"
	"gnsslna/internal/mna"
	"gnsslna/internal/optim"
	"gnsslna/internal/twoport"
	"gnsslna/internal/vna"
)

// benchSuite provides cached inputs so each bench iteration measures the
// experiment itself, not the shared setup.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s := experiments.NewSuite(experiments.Config{Seed: 1, Quick: true})
	if _, err := s.Dataset(); err != nil {
		b.Fatal(err)
	}
	return s
}

// designedSuite also precomputes the extraction and design.
func designedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s := benchSuite(b)
	if _, err := s.Design(); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkE1ModelComparison(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E1ModelComparison(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2ExtractionMethods(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E2ExtractionMethods(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3ModelFit(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Extracted(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E3ModelFit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4GoalAttainment(b *testing.B) {
	s := designedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E4GoalAttainment(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5DesignFlow(b *testing.B) {
	// E5 *is* the optimization: re-run it fresh each iteration.
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Config{Seed: 1, Quick: true})
		if _, err := s.E5DesignFlow(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Verification(b *testing.B) {
	s := designedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E6Verification(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Dispersion(b *testing.B) {
	s := designedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E7Dispersion(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Intermodulation(b *testing.B) {
	s := designedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E8Intermodulation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9Constellations(b *testing.B) {
	s := designedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E9Constellations(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the kernels under the experiments ---

func BenchmarkDeviceSParams(b *testing.B) {
	d := device.Golden()
	bias := device.Bias{Vgs: 0.52, Vds: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.SAt(bias, 1.575e9, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceNoiseParams(b *testing.B) {
	d := device.Golden()
	bias := device.Bias{Vgs: 0.52, Vds: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.NoiseParamsAt(bias, 1.575e9, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAmplifierBandEvaluation(b *testing.B) {
	// Repeated evaluation of one design: after the first iteration every
	// call hits the evaluation memo, which is exactly the serve-worker
	// repeated-spec pattern this benchmark tracks.
	des := core.NewDesigner(core.NewBuilder(device.Golden()))
	des.Spec.NPoints = 11
	x := core.Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := des.Evaluate(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAmplifierEvaluateUncached(b *testing.B) {
	// The memo-bypassed full evaluation: the honest cost of the batched
	// stamp-once/solve-many band path (in-band grid plus stability scan).
	des := core.NewDesigner(core.NewBuilder(device.Golden()))
	des.Memo = nil
	des.Spec.NPoints = 11
	x := core.Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := des.Evaluate(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAmplifierMetricsBand(b *testing.B) {
	// The band kernel's metrics sweep on a prebuilt amplifier: compiled
	// chains and hoisted device state, no designer aggregation on top.
	amp, err := core.NewBuilder(device.Golden()).Build(
		core.Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12})
	if err != nil {
		b.Fatal(err)
	}
	freqs := mathx.Linspace(1.1e9, 1.7e9, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := amp.Sweep(freqs, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAmplifierEvaluateMemoHit(b *testing.B) {
	// The pure hit path: content hash, LRU lookup, immutable result.
	des := core.NewDesigner(core.NewBuilder(device.Golden()))
	des.Memo = core.NewEvalMemo(64)
	des.Spec.NPoints = 11
	x := core.Design{Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12}
	// Two warm-up evaluations: the doorkeeper admits a key on its second
	// miss, so the hit path only opens after the second pass.
	for i := 0; i < 2; i++ {
		if _, err := des.Evaluate(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := des.Evaluate(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdFETExtraction(b *testing.B) {
	ds, err := vna.RunCampaign(device.Golden(), vna.DefaultCampaign(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.ColdFET(ds.ColdPinched, ds.ColdOpen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComplexLUSolve16(b *testing.B) {
	n := 16
	a := mathx.NewCMatrix(n, n)
	rhs := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, complex(float64((i*7+j*3)%11)-5, float64((i+j)%5)))
		}
		a.Add(i, i, complex(float64(n), 0))
		rhs[i] = complex(float64(i), 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mathx.SolveC(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCascadeNoisyTwoPorts(b *testing.B) {
	d := device.Golden()
	tp, err := d.NoisyAt(device.Bias{Vgs: 0.52, Vds: 3}, 1.575e9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tp.Cascade(tp)
	}
}

func BenchmarkSConversionRoundTrip(b *testing.B) {
	s := twoport.Mat2{
		{complex(0.5, 0.3), complex(0.04, 0.02)},
		{complex(3.5, 1.2), complex(0.4, -0.5)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		y, err := twoport.SToY(s, 50)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := twoport.YToS(y, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGoalAttainImprovedAnalytic(b *testing.B) {
	obj := func(x []float64) []float64 {
		f1 := x[0]*x[0] + x[1]*x[1]
		d := x[0] - 2
		return []float64{f1, d*d + x[1]*x[1]}
	}
	goals := []optim.Goal{{Target: 0, Weight: 1}, {Target: 0, Weight: 1}}
	lo := []float64{-4, -4}
	hi := []float64{4, 4}
	for i := 0; i < b.N; i++ {
		opts := &optim.AttainOptions{Seed: int64(i + 1), GlobalEvals: 1500, PolishEvals: 900}
		if _, err := optim.GoalAttainImproved(obj, goals, lo, hi, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoToneGoertzel(b *testing.B) {
	d := device.Golden()
	bias := device.Bias{Vgs: 0.52, Vds: 3}
	cfg := vna.TwoToneConfig{F1: 1.5750e9, F2: 1.5760e9, Resolution: 500e3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vna.RunTwoTone(d, bias, 0.004, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Calibration(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E10Calibration(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11TwoStage(b *testing.B) {
	s := designedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E11TwoStage(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCMAESRosenbrock(b *testing.B) {
	lo := []float64{-2, -2}
	hi := []float64{2, 2}
	f := func(x []float64) float64 {
		a := x[1] - x[0]*x[0]
		c := 1 - x[0]
		return 100*a*a + c*c
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optim.CMAES(f, lo, hi, &optim.CMAESOptions{Generations: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel-evaluation variants (Workers = NumCPU) ---
//
// The Workers benchmarks drive the same pipelines with the evaluation
// fan-out enabled. Results are identical to the serial runs by
// construction; the benchmarks measure the wall-clock effect of the
// worker pool at the machine's full width.

func BenchmarkE2ExtractionMethodsWorkers(b *testing.B) {
	s := experiments.NewSuite(experiments.Config{Seed: 1, Quick: true, Workers: runtime.NumCPU()})
	if _, err := s.Dataset(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E2ExtractionMethods(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4GoalAttainmentWorkers(b *testing.B) {
	s := experiments.NewSuite(experiments.Config{Seed: 1, Quick: true, Workers: runtime.NumCPU()})
	if _, err := s.Design(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.E4GoalAttainment(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5DesignFlowWorkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Config{Seed: 1, Quick: true, Workers: runtime.NumCPU()})
		if _, err := s.E5DesignFlow(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCMAESRosenbrockWorkers(b *testing.B) {
	lo := []float64{-2, -2}
	hi := []float64{2, 2}
	f := func(x []float64) float64 {
		a := x[1] - x[0]*x[0]
		c := 1 - x[0]
		return 100*a*a + c*c
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := &optim.CMAESOptions{Generations: 200, Seed: int64(i + 1), Workers: runtime.NumCPU()}
		if _, err := optim.CMAES(f, lo, hi, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCOperatingPoint(b *testing.B) {
	d := device.Golden()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := mna.NewDC()
		c.AddV("vcc", "0", 5)
		c.AddR("vcc", "gate", 47e3)
		c.AddR("gate", "0", 5.1e3)
		c.AddR("vcc", "drain", 22)
		c.AddFET(d.DC, "gate", "drain", "0")
		if _, err := c.OperatingPoint(); err != nil {
			b.Fatal(err)
		}
	}
}

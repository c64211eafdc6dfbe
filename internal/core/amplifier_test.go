package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

// referenceDesign is a hand-tuned reasonable design used as a fixture.
var referenceDesign = Design{
	Vgs: 0.46, Vds: 3, LIn: 5.6e-9, LDegen: 0.5e-9, LOut: 2.2e-9, COut: 0.5e-12,
}

func buildRef(t *testing.T) *Amplifier {
	t.Helper()
	amp, err := NewBuilder(device.Golden()).Build(referenceDesign)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return amp
}

func TestGNSSBandsCoverage(t *testing.T) {
	bands := GNSSBands()
	if len(bands) < 10 {
		t.Fatalf("bands = %d, want >= 10 signals", len(bands))
	}
	lo, hi := DesignBand()
	if lo >= hi {
		t.Fatal("design band inverted")
	}
	names := map[string]bool{}
	for _, b := range bands {
		if b.Center < lo || b.Center > hi {
			t.Errorf("%s center %g outside the design band [%g, %g]", b.Name, b.Center, lo, hi)
		}
		if b.Width <= 0 {
			t.Errorf("%s has no width", b.Name)
		}
		if names[b.Name] {
			t.Errorf("duplicate band %s", b.Name)
		}
		names[b.Name] = true
	}
	// The four constellations of the paper must all appear.
	for _, c := range []string{"GPS", "GLONASS", "Galileo", "Compass"} {
		found := false
		for n := range names {
			if len(n) >= len(c) && n[:len(c)] == c {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("constellation %s missing", c)
		}
	}
}

func TestAmplifierMeetsBasicExpectations(t *testing.T) {
	amp := buildRef(t)
	m, err := amp.MetricsAt(1.575e9, 50)
	if err != nil {
		t.Fatalf("MetricsAt: %v", err)
	}
	if m.NFdB < 0.1 || m.NFdB > 1.5 {
		t.Errorf("NF = %g dB, want sub-dB LNA range", m.NFdB)
	}
	if m.GTdB < 10 || m.GTdB > 25 {
		t.Errorf("GT = %g dB, want 10-25", m.GTdB)
	}
	if m.NFdB < m.FminDB {
		t.Errorf("NF %g below Fmin %g: impossible", m.NFdB, m.FminDB)
	}
	if amp.Ids() <= 0 || amp.PowerDissipation() <= 0 {
		t.Error("bias bookkeeping broken")
	}
}

func TestAmplifierUnconditionallyStableWideband(t *testing.T) {
	amp := buildRef(t)
	for _, f := range mathx.Logspace(0.2e9, 6e9, 25) {
		m, err := amp.MetricsAt(f, 50)
		if err != nil {
			t.Fatalf("MetricsAt(%g): %v", f, err)
		}
		if m.Mu <= 1 {
			t.Errorf("f = %.3g GHz: mu = %.3f <= 1 (potential instability)", f/1e9, m.Mu)
		}
	}
}

func TestDegenerationTradesGainForMatch(t *testing.T) {
	b := NewBuilder(device.Golden())
	small := referenceDesign
	small.LDegen = 0.1e-9
	big := referenceDesign
	big.LDegen = 1.5e-9
	ampS, err := b.Build(small)
	if err != nil {
		t.Fatal(err)
	}
	ampB, err := b.Build(big)
	if err != nil {
		t.Fatal(err)
	}
	f := 1.4e9
	mS, err := ampS.MetricsAt(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := ampB.MetricsAt(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mB.GTdB >= mS.GTdB {
		t.Errorf("degeneration should cost gain: %g -> %g dB", mS.GTdB, mB.GTdB)
	}
}

func TestDesignVectorRoundTrip(t *testing.T) {
	v := referenceDesign.Vector()
	back := DesignFromVector(v)
	if back != referenceDesign {
		t.Errorf("vector round trip: %+v != %+v", back, referenceDesign)
	}
	lo, hi := DesignBounds()
	if len(lo) != len(v) || len(hi) != len(v) {
		t.Fatal("bounds dimension mismatch with design vector")
	}
	for i := range lo {
		if lo[i] >= hi[i] {
			t.Errorf("bounds[%d] inverted", i)
		}
	}
}

func TestAmplifierNetworkExport(t *testing.T) {
	amp := buildRef(t)
	freqs := mathx.Linspace(1.1e9, 1.7e9, 7)
	net, err := amp.Network(freqs, 50)
	if err != nil {
		t.Fatalf("Network: %v", err)
	}
	if net.Len() != len(freqs) {
		t.Fatalf("network length %d, want %d", net.Len(), len(freqs))
	}
	// The network's S21 must match MetricsAt's gain.
	m, err := amp.MetricsAt(freqs[3], 50)
	if err != nil {
		t.Fatal(err)
	}
	gt := mathx.DB10(twoport.TransducerGain(net.S[3], 0, 0))
	if math.Abs(gt-m.GTdB) > 1e-9 {
		t.Errorf("network S21 gain %g disagrees with metrics %g", gt, m.GTdB)
	}
}

func TestNoiseFigureDominatedByFirstElements(t *testing.T) {
	// Removing the input network loss must reduce the amplifier NF: the
	// input chain contributes directly per Friis.
	amp := buildRef(t)
	f := 1.575e9
	full, err := amp.NoisyAt(f)
	if err != nil {
		t.Fatal(err)
	}
	devOnly, err := amp.Dev.NoisyAt(amp.Bias, f)
	if err != nil {
		t.Fatal(err)
	}
	nfFull := mathx.DB10(full.FigureY(complex(1.0/50, 0)))
	nfDev := mathx.DB10(devOnly.FigureY(complex(1.0/50, 0)))
	// Full amp NF should exceed the bare device's 50-ohm NF minus the
	// matching improvement; at minimum it must exceed the device Fmin.
	pDev, err := devOnly.NoiseParams(50)
	if err != nil {
		t.Fatal(err)
	}
	if nfFull < pDev.FminDB() {
		t.Errorf("amplifier NF %g below device Fmin %g", nfFull, pDev.FminDB())
	}
	_ = nfDev
}

func TestBuilderValidation(t *testing.T) {
	b := &Builder{}
	if _, err := b.Build(referenceDesign); err == nil {
		t.Error("builder without device accepted")
	}
}

// TestSingularDeviceErrorsNameFrequency pins the error contract of the band
// kernel without per-point fallbacks: a device whose intrinsic admittance
// has no Z form (no capacitances, no Ri/Tau, no parasitics) fails Embed at
// every frequency, and each entry point, the A-only stability scan included,
// must surface the singular-network error with the failing frequency in Hz.
func TestSingularDeviceErrorsNameFrequency(t *testing.T) {
	dev := device.Golden()
	dev.Caps = device.CapModel{}
	dev.Ext = device.Extrinsics{}
	dev.Ri, dev.Tau = 0, 0
	b := NewBuilder(dev)
	check := func(name string, err error, f float64) {
		t.Helper()
		if !errors.Is(err, twoport.ErrSingularNetwork) {
			t.Errorf("%s: error %v, want twoport.ErrSingularNetwork", name, err)
			return
		}
		if hz := fmt.Sprintf("%.3g Hz", f); !strings.Contains(err.Error(), hz) {
			t.Errorf("%s: error %q does not name %s", name, err, hz)
		}
	}

	d := NewDesigner(b)
	grid, _ := d.SweepGrids()
	_, err := d.Evaluate(referenceDesign)
	check("Designer.Evaluate", err, grid[0])

	amp, err := b.Build(referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{1.2e9, 1.5e9}
	_, err = amp.Sweep(freqs, 50)
	check("Amplifier.Sweep", err, freqs[0])
	// Evaluate fails in band before its stability scan runs, so drive the
	// A-only path directly.
	err = amp.muBandInto(new(BandWorkspace), make([]float64, len(freqs)), freqs, 50)
	check("stability scan", err, freqs[0])

	ts, err := b.BuildTwoStage(referenceDesign, referenceDesign)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ts.MetricsAt(1.4e9, 50)
	check("TwoStage.MetricsAt", err, 1.4e9)
}

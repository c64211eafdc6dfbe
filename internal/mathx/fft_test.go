package mathx

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFFTKnownTone(t *testing.T) {
	n := 256
	fs := 256.0
	f0 := 16.0 // exactly bin 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*f0*float64(i)/fs), 0)
	}
	y, err := FFT(x)
	if err != nil {
		t.Fatalf("FFT: %v", err)
	}
	// Bin 16 and bin 240 carry n/2 each.
	if got := cmplx.Abs(y[16]); math.Abs(got-128) > 1e-9 {
		t.Errorf("bin 16 magnitude = %g, want 128", got)
	}
	if got := cmplx.Abs(y[240]); math.Abs(got-128) > 1e-9 {
		t.Errorf("bin 240 magnitude = %g, want 128", got)
	}
	for k, v := range y {
		if k != 16 && k != 240 && cmplx.Abs(v) > 1e-9 {
			t.Fatalf("leakage at bin %d: %g", k, cmplx.Abs(v))
		}
	}
}

func TestFFTMatchesGoertzel(t *testing.T) {
	// The two independent spectral paths must agree on a multi-tone signal.
	n := 1024
	fs := 1024.0
	tones := map[float64]float64{32: 1.0, 100: 0.25, 333: 0.05}
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		for f, a := range tones {
			x[i] += a * math.Cos(2*math.Pi*f*ti)
		}
	}
	spec, err := RealSpectrum(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	for f, a := range tones {
		bin := spec[int(f)]
		if math.Abs(bin.Amplitude-a) > 1e-9 {
			t.Errorf("FFT amp at %g = %g, want %g", f, bin.Amplitude, a)
		}
		if g := ToneAmplitude(x, f, fs); math.Abs(g-bin.Amplitude) > 1e-9 {
			t.Errorf("Goertzel %g vs FFT %g at %g Hz", g, bin.Amplitude, f)
		}
	}
}

func TestFFTRejectsBadLength(t *testing.T) {
	if _, err := FFT(make([]complex128, 100)); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := FFT(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([]complex128, 256)
	var tSum float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		tSum += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	y, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	var fSum float64
	for _, v := range y {
		fSum += real(v)*real(v) + imag(v)*imag(v)
	}
	fSum /= float64(len(x))
	if math.Abs(tSum-fSum) > 1e-9*tSum {
		t.Errorf("Parseval violated: time %g vs freq %g", tSum, fSum)
	}
}

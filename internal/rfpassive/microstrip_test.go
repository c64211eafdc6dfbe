package rfpassive

import (
	"math"
	"math/cmplx"
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

func TestHammerstadJensenKnownValues(t *testing.T) {
	// Classic sanity anchors: on er=4.4, h=1.5mm FR-4, a ~2.85mm strip is
	// close to 50 ohm; a w=h strip on er=9.8 alumina is near 50 too.
	sub := FR4()
	w, err := sub.WidthForZ0(50)
	if err != nil {
		t.Fatalf("WidthForZ0: %v", err)
	}
	if w < 2.2e-3 || w > 3.4e-3 {
		t.Errorf("FR4 50-ohm width = %.3g mm, want ~2.9 mm", w*1e3)
	}
	eps, z0 := sub.StaticParams(w)
	if math.Abs(z0-50) > 0.01 {
		t.Errorf("synthesized width gives Z0 = %g, want 50", z0)
	}
	if eps < 1 || eps > sub.Er {
		t.Errorf("epsEff = %g outside (1, er)", eps)
	}
	alumina := Substrate{Er: 9.8, H: 0.635e-3}
	_, z0a := alumina.StaticParams(0.6e-3)
	if z0a < 45 || z0a > 55 {
		t.Errorf("alumina w~h line Z0 = %g, want ~50", z0a)
	}
}

func TestWidthForZ0Monotone(t *testing.T) {
	sub := RogersRO4350()
	var prev float64 = math.Inf(1)
	for _, z := range []float64{30, 50, 70, 90} {
		w, err := sub.WidthForZ0(z)
		if err != nil {
			t.Fatalf("WidthForZ0(%g): %v", z, err)
		}
		if w >= prev {
			t.Errorf("width for %g ohm = %g not decreasing", z, w)
		}
		prev = w
	}
	if _, err := sub.WidthForZ0(-5); err == nil {
		t.Error("negative Z0 accepted")
	}
	if _, err := sub.WidthForZ0(500); err == nil {
		t.Error("unrealizable Z0 accepted")
	}
}

func TestDispersionRaisesEpsEff(t *testing.T) {
	// Kobayashi dispersion: epsEff(f) increases monotonically with f toward
	// er, starting at the static value.
	sub := FR4()
	w, _ := sub.WidthForZ0(50)
	e0 := sub.EpsEff(w, 0, true)
	eStatic, _ := sub.StaticParams(w)
	if !mathx.CloseRel(e0, eStatic, 1e-12) {
		t.Errorf("epsEff(0) = %g, want static %g", e0, eStatic)
	}
	prev := e0
	for _, f := range []float64{0.5e9, 1e9, 2e9, 5e9, 10e9, 30e9} {
		e := sub.EpsEff(w, f, true)
		if e < prev-1e-12 {
			t.Errorf("epsEff not monotone at %g Hz: %g < %g", f, e, prev)
		}
		if e > sub.Er {
			t.Errorf("epsEff(%g) = %g exceeds er", f, e)
		}
		prev = e
	}
	// Dispersion disabled: flat.
	if sub.EpsEff(w, 10e9, false) != eStatic {
		t.Error("dispersion off must return static value")
	}
}

func TestLineLossesPositiveAndGrowing(t *testing.T) {
	sub := FR4()
	w, _ := sub.WidthForZ0(50)
	ac1 := sub.AlphaConductor(w, 1e9)
	ac2 := sub.AlphaConductor(w, 4e9)
	if ac1 <= 0 || ac2 <= ac1 {
		t.Errorf("conductor loss not increasing: %g -> %g", ac1, ac2)
	}
	// Skin effect: doubling f scales alpha_c by sqrt(2).
	if !mathx.CloseRel(sub.AlphaConductor(w, 2e9)/ac1, math.Sqrt2, 1e-9) {
		t.Error("conductor loss does not follow sqrt(f)")
	}
	ad1 := sub.AlphaDielectric(w, 1e9, true)
	ad2 := sub.AlphaDielectric(w, 4e9, true)
	if ad1 <= 0 || ad2 <= ad1 {
		t.Errorf("dielectric loss not increasing: %g -> %g", ad1, ad2)
	}
	if sub.AlphaConductor(w, 0) != 0 || sub.AlphaDielectric(w, 0, true) != 0 {
		t.Error("DC losses must be zero")
	}
}

func TestLinePassivityAndReciprocity(t *testing.T) {
	sub := FR4()
	line, err := NewLine50(sub, 50, 45, 1.575e9)
	if err != nil {
		t.Fatalf("NewLine50: %v", err)
	}
	for _, f := range []float64{1.1e9, 1.4e9, 1.7e9} {
		s, err := twoport.ABCDToS(line.ABCD(f), 50)
		if err != nil {
			t.Fatalf("ABCDToS: %v", err)
		}
		// Passive: |S21| < 1; lossy: strictly.
		if g := cmplx.Abs(s[1][0]); g >= 1 {
			t.Errorf("f=%g: |S21| = %g, want < 1", f, g)
		}
		// Reciprocal: S12 == S21.
		if cmplx.Abs(s[0][1]-s[1][0]) > 1e-12 {
			t.Errorf("f=%g: line not reciprocal", f)
		}
		// Power conservation: |S11|^2 + |S21|^2 <= 1.
		p := real(s[0][0])*real(s[0][0]) + imag(s[0][0])*imag(s[0][0]) +
			real(s[1][0])*real(s[1][0]) + imag(s[1][0])*imag(s[1][0])
		if p > 1 {
			t.Errorf("f=%g: power gain %g > 1 from passive line", f, p)
		}
	}
}

func TestNewLine50ElectricalLength(t *testing.T) {
	sub := RogersRO4350()
	fRef := 1.575e9
	line, err := NewLine50(sub, 50, 90, fRef)
	if err != nil {
		t.Fatalf("NewLine50: %v", err)
	}
	// The phase of S21 at fRef must be ~-90 degrees.
	s, err := twoport.ABCDToS(line.ABCD(fRef), 50)
	if err != nil {
		t.Fatal(err)
	}
	phase := cmplx.Phase(s[1][0]) * 180 / math.Pi
	if math.Abs(phase+90) > 3 {
		t.Errorf("quarter-wave phase = %g deg, want ~-90", phase)
	}
}

func TestLineNoiseMatchesLoss(t *testing.T) {
	// For a well-matched lossy line, NF ~ insertion loss (passive at T0).
	sub := FR4()
	line, err := NewLine50(sub, 50, 90, 1.575e9)
	if err != nil {
		t.Fatal(err)
	}
	f := 1.575e9
	n := line.Noisy(f)
	s, err := n.S(50)
	if err != nil {
		t.Fatal(err)
	}
	lossDB := -mathx.DB20(cmplx.Abs(s[1][0]))
	nfDB := mathx.DB10(n.FigureY(complex(1.0/50, 0)))
	if math.Abs(nfDB-lossDB) > 0.1 {
		t.Errorf("line NF %.3f dB vs loss %.3f dB: should nearly match", nfDB, lossDB)
	}
	if nfDB <= 0 {
		t.Errorf("lossy line NF = %g, want > 0", nfDB)
	}
}

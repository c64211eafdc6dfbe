package noise

import (
	"math"
	"math/cmplx"
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

func TestFigureFormulaAgainstDefinition(t *testing.T) {
	p := Params{Fmin: 1.25, Rn: 20, GammaOpt: cmplx.Rect(0.5, 0.7), Z0: 50}
	// At the optimum the figure equals Fmin.
	if got := p.Figure(p.GammaOpt); !mathx.CloseRel(got, p.Fmin, 1e-12) {
		t.Errorf("F(GammaOpt) = %g, want %g", got, p.Fmin)
	}
	// Against a 50-ohm source compute by the explicit Y formula.
	ys := complex(1.0/50, 0)
	d := ys - p.YOpt()
	want := p.Fmin + p.Rn/real(ys)*(real(d)*real(d)+imag(d)*imag(d))
	if got := p.Figure(0); !mathx.CloseRel(got, want, 1e-12) {
		t.Errorf("F(0) = %g, want %g", got, want)
	}
	if p.FminDB() != mathx.DB10(p.Fmin) {
		t.Error("FminDB inconsistent")
	}
}

func TestFigureUnphysicalSource(t *testing.T) {
	p := Params{Fmin: 1.2, Rn: 10, GammaOpt: 0, Z0: 50}
	if f := p.FigureY(complex(-0.01, 0)); !math.IsInf(f, 1) {
		t.Errorf("negative-conductance source F = %g, want +Inf", f)
	}
}

func TestNoiseCircleLocus(t *testing.T) {
	p := Params{Fmin: 1.3, Rn: 15, GammaOpt: cmplx.Rect(0.45, -0.6), Z0: 50}
	target := 1.6 // linear
	c, err := p.Circle(target)
	if err != nil {
		t.Fatalf("Circle: %v", err)
	}
	for k := 0; k < 12; k++ {
		th := float64(k) / 12 * 2 * math.Pi
		g := c.Center + cmplx.Rect(c.Radius, th)
		if cmplx.Abs(g) >= 1 {
			continue
		}
		if f := p.Figure(g); math.Abs(f-target) > 1e-9 {
			t.Errorf("on-circle figure = %g, want %g", f, target)
		}
	}
	// The Fmin circle degenerates to the point GammaOpt.
	c0, err := p.Circle(p.Fmin)
	if err != nil {
		t.Fatalf("Circle(Fmin): %v", err)
	}
	if c0.Radius > 1e-9 || cmplx.Abs(c0.Center-p.GammaOpt) > 1e-9 {
		t.Errorf("Fmin circle = %+v, want point at GammaOpt", c0)
	}
	if _, err := p.Circle(1.0); err == nil {
		t.Error("circle below Fmin accepted")
	}
}

func TestFriis(t *testing.T) {
	// Classic example: F1 = 2 (3 dB), G1 = 10; F2 = 10; total = 2.9.
	got := Friis([]float64{2, 10}, []float64{10, 1})
	if !mathx.Close(got, 2.9, 1e-12) {
		t.Errorf("Friis = %g, want 2.9", got)
	}
	if Friis(nil, nil) != 1 {
		t.Error("empty Friis must be 1")
	}
	// High first-stage gain makes later stages irrelevant.
	f := Friis([]float64{1.2, 100}, []float64{1e6, 1})
	if math.Abs(f-1.2) > 1e-3 {
		t.Errorf("high-gain Friis = %g, want ~1.2", f)
	}
}

func TestYOptMatchesGammaOpt(t *testing.T) {
	p := Params{Fmin: 1.5, Rn: 10, GammaOpt: complex(0.2, 0.3), Z0: 50}
	z := twoport.ZFromGamma(p.GammaOpt, 50)
	if cmplx.Abs(p.YOpt()-1/z) > 1e-15 {
		t.Error("YOpt inconsistent with GammaOpt")
	}
}

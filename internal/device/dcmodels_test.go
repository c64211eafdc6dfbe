package device

import (
	"math"
	"math/rand"
	"testing"
)

func TestAllModelsBasicPhysics(t *testing.T) {
	for _, m := range AllModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			// Zero drain voltage: zero current.
			if i := m.Ids(0.6, 0); math.Abs(i) > 1e-12 {
				t.Errorf("Ids(Vds=0) = %g, want 0", i)
			}
			// Deep pinch-off: (nearly) zero current.
			if i := m.Ids(-1.5, 3); i > 1e-4 {
				t.Errorf("Ids(pinched) = %g, want ~0", i)
			}
			// Saturation current positive at a strong bias.
			if i := m.Ids(0.8, 3); i <= 0 {
				t.Errorf("Ids(on) = %g, want > 0", i)
			}
			// Monotone in Vgs through the active region.
			prev := m.Ids(0.0, 3)
			for v := 0.05; v <= 0.9; v += 0.05 {
				cur := m.Ids(v, 3)
				if cur < prev-1e-9 {
					t.Errorf("Ids not monotone in Vgs at %g: %g < %g", v, cur, prev)
				}
				prev = cur
			}
			// Gm positive in the active region.
			if g := Gm(m, 0.6, 3); g <= 0 {
				t.Errorf("Gm = %g, want > 0", g)
			}
			// Gds non-negative in saturation.
			if g := Gds(m, 0.6, 3); g < -1e-6 {
				t.Errorf("Gds = %g, want >= 0", g)
			}
		})
	}
}

func TestModelByName(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"Angelov", "Angelov"},
		{"angelov", "Angelov"},
		{"CURTICE-2", "Curtice-2"},
		{"statz", "Statz"},
		{"Bogus", ""},
		{"", ""},
	} {
		m, ok := ModelByName(tc.name)
		got := ""
		if ok {
			got = m.Name()
		}
		if got != tc.want {
			t.Errorf("ModelByName(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestParamsRoundTripAllModels(t *testing.T) {
	for _, m := range AllModels() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			p := m.Params()
			if len(p) != len(m.ParamNames()) {
				t.Fatalf("param/name length mismatch: %d vs %d", len(p), len(m.ParamNames()))
			}
			lo, hi := m.Bounds()
			if len(lo) != len(p) || len(hi) != len(p) {
				t.Fatalf("bounds length mismatch")
			}
			for i := range p {
				if lo[i] >= hi[i] {
					t.Errorf("bounds[%d] inverted: [%g, %g]", i, lo[i], hi[i])
				}
			}
			// Mutate and restore.
			p2 := append([]float64(nil), p...)
			p2[0] *= 1.5
			if err := m.SetParams(p2); err != nil {
				t.Fatalf("SetParams: %v", err)
			}
			got := m.Params()
			if got[0] != p2[0] {
				t.Errorf("SetParams did not apply: %g vs %g", got[0], p2[0])
			}
			if err := m.SetParams(p[:1]); err == nil {
				t.Error("short parameter vector accepted")
			}
		})
	}
}

func TestGmDerivativeConsistency(t *testing.T) {
	// Gm from the helper must agree with a manual secant for the Angelov
	// model (smooth everywhere).
	m := Golden().DC
	vgs, vds := 0.55, 3.0
	h := 1e-5
	manual := (m.Ids(vgs+h, vds) - m.Ids(vgs-h, vds)) / (2 * h)
	if g := Gm(m, vgs, vds); math.Abs(g-manual) > 1e-4*math.Abs(manual) {
		t.Errorf("Gm = %g, secant = %g", g, manual)
	}
}

func TestAngelovBellShapedGm(t *testing.T) {
	// The Angelov model's signature: gm peaks near Vpk and falls beyond.
	m := &Angelov{Ipk: 0.1, Vpk: 0.5, P1: 3, P2: 0, P3: 0, Lambda: 0.05, Alpha: 3}
	gPeak := Gm(m, 0.5, 3)
	gBelow := Gm(m, 0.1, 3)
	gAbove := Gm(m, 0.9, 3)
	if gPeak <= gBelow || gPeak <= gAbove {
		t.Errorf("gm not bell-shaped: below=%g peak=%g above=%g", gBelow, gPeak, gAbove)
	}
}

func TestColdFETBehaviour(t *testing.T) {
	// At Vds=0 the channel acts as a conductance: gds > 0 when the channel
	// is open and ~0 when pinched (basis of the cold-FET extraction step).
	m := Golden().DC
	open := Gds(m, 0.7, 0)
	pinched := Gds(m, -1.2, 0)
	if open < 1e-3 {
		t.Errorf("open-channel cold conductance = %g S, want substantial", open)
	}
	if pinched > open/1e3 {
		t.Errorf("pinched cold conductance = %g S, want << open (%g)", pinched, open)
	}
}

func TestGm3SignChange(t *testing.T) {
	// gm3 of the Angelov model changes sign across the gm peak — the
	// physical basis of the IP3 "sweet spot".
	m := Golden().DC
	low := Gm3(m, 0.30, 3)
	high := Gm3(m, 0.75, 3)
	if low*high >= 0 {
		t.Errorf("gm3 does not change sign: gm3(0.30)=%g gm3(0.75)=%g", low, high)
	}
}

func TestTOMCompressionReducesCurrent(t *testing.T) {
	base := &TOM{Beta: 0.15, Vto: 0.3, Q: 2, Gamma: 0, Delta: 0, Alpha: 3}
	compressed := &TOM{Beta: 0.15, Vto: 0.3, Q: 2, Gamma: 0, Delta: 0.5, Alpha: 3}
	if compressed.Ids(0.8, 4) >= base.Ids(0.8, 4) {
		t.Error("Delta compression must reduce current")
	}
}

func TestStatzKneePolynomialContinuity(t *testing.T) {
	// The Statz saturation function must be continuous at Vds = 3/Alpha.
	m := NewStatz()
	vKnee := 3 / m.Alpha
	below := m.Ids(0.7, vKnee-1e-9)
	above := m.Ids(0.7, vKnee+1e-9)
	if math.Abs(below-above) > 1e-6*math.Abs(above) {
		t.Errorf("Statz discontinuous at knee: %g vs %g", below, above)
	}
}

func TestAllModelsPhysicalAcrossRandomParams(t *testing.T) {
	// Property: for any parameter vector inside the declared bounds, every
	// model returns finite, non-negative current for vds >= 0 across the
	// operating region.
	rng := rand.New(rand.NewSource(17))
	for _, m := range AllModels() {
		lo, hi := m.Bounds()
		for trial := 0; trial < 60; trial++ {
			p := make([]float64, len(lo))
			for i := range p {
				p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			if err := m.SetParams(p); err != nil {
				t.Fatalf("%s: SetParams: %v", m.Name(), err)
			}
			for _, vgs := range []float64{-1, 0, 0.3, 0.6, 1} {
				for _, vds := range []float64{0, 0.5, 2, 4} {
					i := m.Ids(vgs, vds)
					if math.IsNaN(i) || math.IsInf(i, 0) {
						t.Fatalf("%s: Ids(%g,%g) = %v with params %v", m.Name(), vgs, vds, i, p)
					}
					if i < -1e-9 {
						t.Fatalf("%s: negative current %g at (%g,%g)", m.Name(), i, vgs, vds)
					}
				}
			}
		}
	}
}

package twoport

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// atf54143ish is a plausible LNA-transistor S-matrix at ~1.5 GHz, used as a
// shared fixture (values are representative, not vendor data).
var atf54143ish = Mat2{
	{cmplx.Rect(0.75, 2.4), cmplx.Rect(0.06, 1.1)},
	{cmplx.Rect(4.9, 1.3), cmplx.Rect(0.35, -0.8)},
}

func TestTransducerGainMatchedIsS21Squared(t *testing.T) {
	// With gammaS = gammaL = 0, GT = |S21|^2 exactly.
	got := TransducerGain(atf54143ish, 0, 0)
	want := abs2(atf54143ish[1][0])
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("GT(0,0) = %g, want |S21|^2 = %g", got, want)
	}
}

func TestGainHierarchy(t *testing.T) {
	// For any terminations: GT <= GA(gammaS) and GT <= GP(gammaL).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		s := randomS(rng)
		gs := cmplx.Rect(rng.Float64()*0.8, rng.Float64()*2*math.Pi)
		gl := cmplx.Rect(rng.Float64()*0.8, rng.Float64()*2*math.Pi)
		gt := TransducerGain(s, gs, gl)
		ga := AvailableGain(s, gs)
		gp := OperatingGain(s, gl)
		if math.IsInf(ga, 1) || math.IsInf(gp, 1) || ga <= 0 || gp <= 0 {
			continue // potentially unstable sample: hierarchy not defined
		}
		if gt > ga*(1+1e-9) {
			t.Fatalf("trial %d: GT %g > GA %g", trial, gt, ga)
		}
		if gt > gp*(1+1e-9) {
			t.Fatalf("trial %d: GT %g > GP %g", trial, gt, gp)
		}
	}
}

func TestGammaInMatchedLoad(t *testing.T) {
	// With a matched load, GammaIn = S11.
	if got := GammaIn(atf54143ish, 0); got != atf54143ish[0][0] {
		t.Errorf("GammaIn(0) = %v, want S11", got)
	}
	if got := GammaOut(atf54143ish, 0); got != atf54143ish[1][1] {
		t.Errorf("GammaOut(0) = %v, want S22", got)
	}
}

func TestGammaZRoundTrip(t *testing.T) {
	for _, z := range []complex128{50, 25 + 10i, 100 - 40i, 75} {
		g := GammaFromZ(z, 50)
		back := ZFromGamma(g, 50)
		if cmplx.Abs(back-z) > 1e-9 {
			t.Errorf("Z %v -> gamma %v -> %v", z, g, back)
		}
	}
	if g := GammaFromZ(50, 50); g != 0 {
		t.Errorf("matched gamma = %v, want 0", g)
	}
}

// attenuatorS returns the S-matrix of a matched resistive attenuator with the
// given loss in dB (tee topology).
func attenuatorS(db float64) Mat2 {
	a := math.Pow(10, db/20)
	// Matched tee attenuator resistor values for Z0 = 50.
	r1 := 50 * (a - 1) / (a + 1)
	r2 := 50 * 2 * a / (a*a - 1)
	abcd := SeriesZ(complex(r1, 0)).
		Mul(ShuntY(complex(1/r2, 0))).
		Mul(SeriesZ(complex(r1, 0)))
	s, err := ABCDToS(abcd, 50)
	if err != nil {
		panic(err)
	}
	return s
}

func TestAttenuatorFixture(t *testing.T) {
	// The tee attenuator must be matched and have exactly its design loss.
	for _, db := range []float64{3, 6, 10, 20} {
		s := attenuatorS(db)
		if cmplx.Abs(s[0][0]) > 1e-10 {
			t.Errorf("%g dB attenuator S11 = %v, want 0", db, s[0][0])
		}
		gotDB := -20 * math.Log10(cmplx.Abs(s[1][0]))
		if math.Abs(gotDB-db) > 1e-9 {
			t.Errorf("attenuator loss = %g dB, want %g", gotDB, db)
		}
	}
}

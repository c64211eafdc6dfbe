package twoport

import (
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomS returns a random "reasonable" scattering matrix with entries inside
// the unit disc scaled to avoid singular conversions.
func randomS(rng *rand.Rand) Mat2 {
	var s Mat2
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s[i][j] = complex(0.6*(rng.Float64()*2-1), 0.6*(rng.Float64()*2-1))
		}
	}
	// Ensure a non-negligible S21 so chain forms exist.
	if cmplx.Abs(s[1][0]) < 0.05 {
		s[1][0] += 0.5
	}
	return s
}

func TestConversionRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const z0 = 50.0
	for trial := 0; trial < 100; trial++ {
		s := randomS(rng)

		z, err := SToZ(s, z0)
		if err != nil {
			t.Fatalf("SToZ: %v", err)
		}
		s2, err := ZToS(z, z0)
		if err != nil {
			t.Fatalf("ZToS: %v", err)
		}
		if d := MaxAbsDiff(s, s2); d > 1e-10 {
			t.Fatalf("trial %d: S->Z->S diff %g", trial, d)
		}

		y, err := SToY(s, z0)
		if err != nil {
			t.Fatalf("SToY: %v", err)
		}
		s3, err := YToS(y, z0)
		if err != nil {
			t.Fatalf("YToS: %v", err)
		}
		if d := MaxAbsDiff(s, s3); d > 1e-10 {
			t.Fatalf("trial %d: S->Y->S diff %g", trial, d)
		}

		a, err := SToABCD(s, z0)
		if err != nil {
			t.Fatalf("SToABCD: %v", err)
		}
		s4, err := ABCDToS(a, z0)
		if err != nil {
			t.Fatalf("ABCDToS: %v", err)
		}
		if d := MaxAbsDiff(s, s4); d > 1e-9 {
			t.Fatalf("trial %d: S->ABCD->S diff %g", trial, d)
		}

		tm, err := SToT(s)
		if err != nil {
			t.Fatalf("SToT: %v", err)
		}
		s5, err := TToS(tm)
		if err != nil {
			t.Fatalf("TToS: %v", err)
		}
		if d := MaxAbsDiff(s, s5); d > 1e-10 {
			t.Fatalf("trial %d: S->T->S diff %g", trial, d)
		}

		h, err := ZToH(z)
		if err != nil {
			t.Fatalf("ZToH: %v", err)
		}
		zBack, err := HToZ(h)
		if err != nil {
			t.Fatalf("HToZ: %v", err)
		}
		if d := MaxAbsDiff(z, zBack); d > 1e-8*(1+cmplx.Abs(z[0][0])) {
			t.Fatalf("trial %d: Z->H->Z diff %g", trial, d)
		}
	}
}

func TestCrossRepresentationConsistency(t *testing.T) {
	// Y and Z obtained independently from S must be mutual inverses.
	rng := rand.New(rand.NewSource(9))
	const z0 = 50.0
	for trial := 0; trial < 50; trial++ {
		s := randomS(rng)
		y, err1 := SToY(s, z0)
		z, err2 := SToZ(s, z0)
		if err1 != nil || err2 != nil {
			continue
		}
		prod := y.Mul(z)
		if d := MaxAbsDiff(prod, Identity2()); d > 1e-9 {
			t.Fatalf("trial %d: Y*Z differs from I by %g", trial, d)
		}
	}
}

func TestSeriesShuntKnownS(t *testing.T) {
	const z0 = 50.0
	// Series 50-ohm resistor: S11 = z/(z+2z0) = 1/3, S21 = 2/3.
	a := SeriesZ(50)
	s, err := ABCDToS(a, z0)
	if err != nil {
		t.Fatalf("ABCDToS: %v", err)
	}
	if !closeC(s[0][0], complex(1.0/3, 0), 1e-12) {
		t.Errorf("series R S11 = %v, want 1/3", s[0][0])
	}
	if !closeC(s[1][0], complex(2.0/3, 0), 1e-12) {
		t.Errorf("series R S21 = %v, want 2/3", s[1][0])
	}
	// Shunt 50-ohm resistor: S11 = -y z0/(y z0 + 2) = -1/3, S21 = 2/3.
	s, err = ABCDToS(ShuntY(1.0/50), z0)
	if err != nil {
		t.Fatalf("ABCDToS: %v", err)
	}
	if !closeC(s[0][0], complex(-1.0/3, 0), 1e-12) {
		t.Errorf("shunt R S11 = %v, want -1/3", s[0][0])
	}
	if !closeC(s[1][0], complex(2.0/3, 0), 1e-12) {
		t.Errorf("shunt R S21 = %v, want 2/3", s[1][0])
	}
}

func TestCascadeMatchesABCDProduct(t *testing.T) {
	// Cascading via T-parameters must agree with multiplying ABCD matrices.
	rng := rand.New(rand.NewSource(17))
	const z0 = 50.0
	for trial := 0; trial < 40; trial++ {
		s1, s2 := randomS(rng), randomS(rng)
		viaT, err := CascadeS(z0, s1, s2)
		if err != nil {
			t.Fatalf("CascadeS: %v", err)
		}
		a1, err := SToABCD(s1, z0)
		if err != nil {
			t.Fatalf("SToABCD: %v", err)
		}
		a2, err := SToABCD(s2, z0)
		if err != nil {
			t.Fatalf("SToABCD: %v", err)
		}
		viaA, err := ABCDToS(a1.Mul(a2), z0)
		if err != nil {
			t.Fatalf("ABCDToS: %v", err)
		}
		if d := MaxAbsDiff(viaT, viaA); d > 1e-9 {
			t.Fatalf("trial %d: cascade representations disagree by %g", trial, d)
		}
	}
}

func TestLosslessLineSParams(t *testing.T) {
	// A matched lossless line is all-pass: |S21| = 1, S11 = 0.
	const z0 = 50.0
	a := LineABCD(complex(z0, 0), complex(0, 2.5), 0.7)
	s, err := ABCDToS(a, z0)
	if err != nil {
		t.Fatalf("ABCDToS: %v", err)
	}
	if cmplx.Abs(s[0][0]) > 1e-12 {
		t.Errorf("matched line S11 = %v, want 0", s[0][0])
	}
	if d := cmplx.Abs(s[1][0]); d < 1-1e-12 || d > 1+1e-12 {
		t.Errorf("matched line |S21| = %g, want 1", d)
	}
}

func TestReciprocalPropertyPreserved(t *testing.T) {
	// Conversions preserve reciprocity: if S12 == S21 then Z12 == Z21.
	f := func(re, im float64) bool {
		s := Mat2{
			{complex(0.2, 0.1), complex(re/4, im/4)},
			{complex(re/4, im/4), complex(-0.1, 0.3)},
		}
		if cmplx.Abs(s[1][0]) < 1e-3 {
			return true
		}
		z, err := SToZ(s, 50)
		if err != nil {
			return true
		}
		return cmplx.Abs(z[0][1]-z[1][0]) < 1e-9*(1+cmplx.Abs(z[0][1]))
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Float64()*2 - 1)
			vals[1] = reflect.ValueOf(rng.Float64()*2 - 1)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func closeC(a, b complex128, tol float64) bool { return cmplx.Abs(a-b) <= tol }

// TestSeriesElementZParamsSingular is the regression for a bug the verify
// harness found: S->Z of an ideal series element "succeeded" because I-S is
// singular only up to rounding (det ~ 1e-17), returning a ~1e17-ohm garbage
// Z-matrix whose round trip back to S lost every digit. Inv now applies a
// scale-invariant singularity test, so the conversion must report
// ErrSingularNetwork instead.
func TestSeriesElementZParamsSingular(t *testing.T) {
	s, err := ABCDToS(SeriesZ(50), 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SToZ(s, 50); err == nil {
		t.Error("S->Z of a pure series element must be singular")
	}
	// The dual: S->Y of a pure shunt element (I+S singular).
	s, err = ABCDToS(ShuntY(0.02), 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SToY(s, 50); err == nil {
		t.Error("S->Y of a pure shunt element must be singular")
	}
	// Well-conditioned conversions still work.
	att := Mat2{{0.05, 0.5}, {0.5, 0.05}}
	z, err := SToZ(att, 50)
	if err != nil {
		t.Fatalf("attenuator S->Z: %v", err)
	}
	back, err := ZToS(z, 50)
	if err != nil {
		t.Fatalf("attenuator Z->S: %v", err)
	}
	if d := MaxAbsDiff(att, back); d > 1e-12 {
		t.Errorf("attenuator round trip diverges by %g", d)
	}
}

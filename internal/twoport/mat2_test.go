package twoport

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestMat2TransposeAndConjTranspose(t *testing.T) {
	m := Mat2{{1 + 2i, 3 - 1i}, {-2i, 4}}
	h := m.ConjTranspose()
	if h[0][1] != cmplx.Conj(m[1][0]) || h[1][0] != cmplx.Conj(m[0][1]) {
		t.Error("ConjTranspose misplaced entries")
	}
	if h[0][0] != cmplx.Conj(m[0][0]) {
		t.Error("ConjTranspose diagonal not conjugated")
	}
}

func TestMat2CongruenceHermitian(t *testing.T) {
	// A congruence transform of a Hermitian matrix stays Hermitian.
	c := Mat2{{2, 1 + 1i}, {1 - 1i, 3}}
	x := Mat2{{0.5 + 0.2i, -1}, {2i, 1 - 0.7i}}
	out := c.Congruence(x)
	if cmplx.Abs(out[0][1]-cmplx.Conj(out[1][0])) > 1e-12 {
		t.Error("congruence broke hermiticity")
	}
	if imag(out[0][0]) > 1e-12 || imag(out[1][1]) > 1e-12 {
		t.Error("congruence produced complex diagonal")
	}
}

func TestMat2InvErrors(t *testing.T) {
	if _, err := (Mat2{{1, 2}, {2, 4}}).Inv(); err == nil {
		t.Error("singular matrix inverted")
	}
	m := Mat2{{3, 1i}, {-1i, 2}}
	inv, err := m.Inv()
	if err != nil {
		t.Fatalf("Inv: %v", err)
	}
	if d := MaxAbsDiff(m.Mul(inv), Identity2()); d > 1e-12 {
		t.Errorf("M*M^-1 off by %g", d)
	}
}

func TestDirectConversionsRoundTrip(t *testing.T) {
	// Exercise the Y<->Z and Y<->ABCD round trips directly (they are covered
	// indirectly by the S-based tests, but the direct forms carry their
	// own singular-case handling).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		y := Mat2{
			{complex(0.02+0.02*rng.Float64(), 0.01*rng.NormFloat64()),
				complex(-0.01*rng.Float64()-0.001, 0.01*rng.NormFloat64())},
			{complex(0.05*rng.NormFloat64()+0.08, 0.01*rng.NormFloat64()),
				complex(0.02+0.02*rng.Float64(), 0.01*rng.NormFloat64())},
		}
		z, err := YToZ(y)
		if err != nil {
			continue
		}
		yBack, err := ZToY(z)
		if err != nil {
			t.Fatalf("ZToY: %v", err)
		}
		if d := MaxAbsDiff(y, yBack); d > 1e-9 {
			t.Fatalf("Y->Z->Y diff %g", d)
		}
		a, err := YToABCD(y)
		if err != nil {
			continue
		}
		y2, err := ABCDToY(a)
		if err != nil {
			t.Fatalf("ABCDToY: %v", err)
		}
		if d := MaxAbsDiff(y, y2); d > 1e-9 {
			t.Fatalf("Y->A->Y diff %g", d)
		}
	}
}

func TestConversionSingularCases(t *testing.T) {
	// A network with Y21 = 0 has no chain form.
	if _, err := YToABCD(Mat2{{0.1, 0}, {0, 0.1}}); err == nil {
		t.Error("YToABCD with Y21=0 accepted")
	}
	if _, err := ABCDToY(Mat2{{1, 0}, {0.02, 1}}); err == nil {
		t.Error("ABCDToY of a shunt element (B=0) accepted")
	}
	if _, err := SToT(Mat2{{0.5, 0.1}, {0, 0.5}}); err == nil {
		t.Error("SToT with S21=0 accepted")
	}
	if _, err := TToS(Mat2{{0, 1}, {1, 0}}); err == nil {
		t.Error("TToS with T11=0 accepted")
	}
	if _, err := CascadeS(50); err == nil {
		t.Error("empty cascade accepted")
	}
	if _, err := ZToH(Mat2{{1, 1}, {1, 0}}); err == nil {
		t.Error("ZToH with Z22=0 accepted")
	}
	if _, err := HToZ(Mat2{{1, 1}, {1, 0}}); err == nil {
		t.Error("HToZ with H22=0 accepted")
	}
}

func TestDeltaAndScale(t *testing.T) {
	s := Mat2{{0.5, 0.1}, {2, 0.3}}
	sc := s.Scale(2)
	if sc[1][0] != 4 {
		t.Error("Scale wrong")
	}
}

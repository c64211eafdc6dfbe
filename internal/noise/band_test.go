package noise

import (
	"math"
	"math/rand"
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

func randTwoPort(rng *rand.Rand) TwoPort {
	c := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	g := func() complex128 { return complex(math.Abs(rng.NormFloat64()), 0) }
	return TwoPort{
		A:  twoport.Mat2{{c(), c()}, {c(), c()}},
		CA: twoport.Mat2{{g(), c()}, {c(), g()}},
	}
}

// TestCascadeSeriesShuntExact pins the in-place elementary noisy cascades
// to the generic Cascade under floating-point equality: for finite
// operands the surviving terms are computed by the identical scalar
// operations in the identical order, so == must hold.
func TestCascadeSeriesShuntExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 200; k++ {
		n := randTwoPort(rng)
		z := complex(math.Abs(rng.NormFloat64())*20, rng.NormFloat64()*30)
		temp := 200 + 200*rng.Float64()
		r := real(z) * temp / mathx.T0
		got := n
		got.CascadeSeries(z, r)
		if want := n.Cascade(SeriesZ(z, temp)); got != want {
			t.Fatalf("CascadeSeries diverges from generic Cascade:\n got %+v\nwant %+v", got, want)
		}
		y := complex(math.Abs(rng.NormFloat64())*1e-3, rng.NormFloat64()*1e-2)
		g := real(y) * temp / mathx.T0
		got = n
		got.CascadeShunt(y, g)
		if want := n.Cascade(ShuntY(y, temp)); got != want {
			t.Fatalf("CascadeShunt diverges from generic Cascade:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestCascadeWithArithmetic pins the in-place generic join and Cascade to
// the chain product and the congruence taken with the first two-port's
// chain matrix, bit for bit, also when m aliases n.
func TestCascadeWithArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 200; k++ {
		n, m := randTwoPort(rng), randTwoPort(rng)
		want := TwoPort{A: n.A.Mul(m.A), CA: n.CA.Add(m.CA.Congruence(n.A))}
		got := n
		got.CascadeWith(&m)
		if !sameTwoPortBits(got, want) {
			t.Fatalf("CascadeWith:\n got %+v\nwant %+v", got, want)
		}
		if v := n.Cascade(m); !sameTwoPortBits(v, want) {
			t.Fatalf("Cascade:\n got %+v\nwant %+v", v, want)
		}
		self := TwoPort{A: n.A.Mul(n.A), CA: n.CA.Add(n.CA.Congruence(n.A))}
		got = n
		got.CascadeWith(&got)
		if !sameTwoPortBits(got, self) {
			t.Fatalf("CascadeWith aliased:\n got %+v\nwant %+v", got, self)
		}
	}
}

func sameTwoPortBits(a, b TwoPort) bool {
	for _, p := range [][2]twoport.Mat2{{a.A, b.A}, {a.CA, b.CA}} {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				x, y := p[0][i][j], p[1][i][j]
				if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
					math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
					return false
				}
			}
		}
	}
	return true
}

// TestFinite exercises the non-finite guard the specialized cascades key on.
func TestFinite(t *testing.T) {
	var n TwoPort
	n.A = twoport.Mat2{{1, 2}, {3, 4}}
	if !n.Finite() {
		t.Error("finite chain matrix reported non-finite")
	}
	n.A[0][1] = complex(math.Inf(1), 0)
	if n.Finite() {
		t.Error("Inf entry reported finite")
	}
	n.A[0][1] = complex(0, math.NaN())
	if n.Finite() {
		t.Error("NaN entry reported finite")
	}
}

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

// TestCascadeSeriesShuntExact pins the elementary noisy-cascade
// specializations to the generic Cascade under floating-point equality:
// for finite operands the surviving terms are computed by the identical
// scalar operations in the identical order, so == must hold.
func TestCascadeSeriesShuntExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 200; k++ {
		n := randTwoPort(rng)
		z := complex(math.Abs(rng.NormFloat64())*20, rng.NormFloat64()*30)
		temp := 200 + 200*rng.Float64()
		r := real(z) * temp / mathx.T0
		if got, want := n.CascadeSeries(z, r), n.Cascade(SeriesZ(z, temp)); got != want {
			t.Fatalf("CascadeSeries diverges from generic Cascade:\n got %+v\nwant %+v", got, want)
		}
		y := complex(math.Abs(rng.NormFloat64())*1e-3, rng.NormFloat64()*1e-2)
		g := real(y) * temp / mathx.T0
		if got, want := n.CascadeShunt(y, g), n.Cascade(ShuntY(y, temp)); got != want {
			t.Fatalf("CascadeShunt diverges from generic Cascade:\n got %+v\nwant %+v", got, want)
		}
	}
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

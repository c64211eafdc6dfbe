package twoport

import (
	"math/rand"
	"testing"
)

func randMat2(rng *rand.Rand) Mat2 {
	c := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	return Mat2{{c(), c()}, {c(), c()}}
}

// TestMulSeriesShuntExact pins the elementary-product specializations to the
// generic Mul under floating-point equality: the dropped terms are products
// with exact ones and zeros, so for finite operands nothing representable
// may differ.
func TestMulSeriesShuntExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 200; k++ {
		a := randMat2(rng)
		v := complex(rng.NormFloat64(), rng.NormFloat64())
		if got, want := MulSeriesZ(a, v), a.Mul(SeriesZ(v)); got != want {
			t.Fatalf("MulSeriesZ diverges from generic Mul:\n got %v\nwant %v", got, want)
		}
		if got, want := MulShuntY(a, v), a.Mul(ShuntY(v)); got != want {
			t.Fatalf("MulShuntY diverges from generic Mul:\n got %v\nwant %v", got, want)
		}
	}
}

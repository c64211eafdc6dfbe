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

// TestBandOpsPointwise pins the slab cascade to its per-point routine.
func TestBandOpsPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 16
	a := make([]Mat2, n)
	b := make([]Mat2, n)
	for i := range a {
		a[i], b[i] = randMat2(rng), randMat2(rng)
	}
	dst := make([]Mat2, n)
	if err := CascadeSBand(50, dst, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		want, err := CascadeS(50, a[i], b[i])
		if err != nil {
			t.Fatal(err)
		}
		if dst[i] != want {
			t.Fatalf("CascadeSBand[%d] diverges from CascadeS", i)
		}
	}
}

// TestSameGrid exercises the grid-identity predicate the cascade fast path
// keys on.
func TestSameGrid(t *testing.T) {
	mk := func(freqs []float64) *Network {
		mats := make([]Mat2, len(freqs))
		n, err := NewNetwork(50, freqs, mats)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk([]float64{1e9, 2e9, 3e9})
	if !SameGrid(a, mk([]float64{1e9, 2e9, 3e9})) {
		t.Error("identical grids must compare equal")
	}
	if SameGrid(a, mk([]float64{1e9, 2e9})) {
		t.Error("shorter grid must not compare equal")
	}
	if SameGrid(a, mk([]float64{1e9, 2.5e9, 3e9})) {
		t.Error("shifted grid must not compare equal")
	}
}

// TestCascadeSameGridFastPath is the regression test for the Network.Cascade
// fast path: on identical grids the cascade must skip At interpolation and
// reproduce the direct per-point CascadeS bit-for-bit; on differing grids
// the historic interpolating behavior must be untouched.
func TestCascadeSameGridFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	freqs := []float64{1.0e9, 1.2e9, 1.4e9, 1.6e9, 1.8e9}
	mk := func(fs []float64) *Network {
		mats := make([]Mat2, len(fs))
		for i := range mats {
			// Small reflections keep the cascades well-conditioned.
			m := randMat2(rng)
			for r := 0; r < 2; r++ {
				for c := 0; c < 2; c++ {
					m[r][c] *= 0.3
				}
			}
			mats[i] = m
		}
		n, err := NewNetwork(50, fs, mats)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk(freqs), mk(freqs)
	got, err := a.Cascade(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		want, err := CascadeS(50, a.S[i], b.S[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.S[i] != want {
			t.Fatalf("same-grid cascade [%d] diverges from direct CascadeS", i)
		}
	}

	// Differing grids: the interpolating path, compared against its own
	// definition (At on the second network).
	c := mk([]float64{0.9e9, 1.3e9, 1.9e9})
	got, err = a.Cascade(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freqs {
		want, err := CascadeS(50, a.S[i], c.At(f))
		if err != nil {
			t.Fatal(err)
		}
		if got.S[i] != want {
			t.Fatalf("mixed-grid cascade [%d] diverges from interpolating reference", i)
		}
	}
}

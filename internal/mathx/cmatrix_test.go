package mathx

import (
	"math/rand"
	"testing"
)

func TestSolveCKnownSystem(t *testing.T) {
	a := CMatrixFromRows([][]complex128{
		{2, 1i},
		{-1i, 3},
	})
	// x = [1, 2i] => b = A x
	x := []complex128{1, 2i}
	b := []complex128{
		a.At(0, 0)*x[0] + a.At(0, 1)*x[1],
		a.At(1, 0)*x[0] + a.At(1, 1)*x[1],
	}
	got, err := SolveC(a, b)
	if err != nil {
		t.Fatalf("SolveC: %v", err)
	}
	for i := range x {
		if !CloseC(got[i], x[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestSolveCSingular(t *testing.T) {
	a := CMatrixFromRows([][]complex128{
		{1, 2},
		{2, 4},
	})
	if _, err := SolveC(a, []complex128{1, 2}); err == nil {
		t.Fatal("SolveC on singular matrix: want error, got nil")
	}
}

func TestLUSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(12)
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
			a.Add(i, i, complex(float64(n), 0)) // diagonally dominant => well conditioned
		}
		want := make([]complex128, n)
		for i := range want {
			want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a.At(i, j) * want[j]
			}
		}
		got, err := SolveC(a, b)
		if err != nil {
			t.Fatalf("trial %d: SolveC: %v", trial, err)
		}
		for i := range want {
			if !CloseC(got[i], want[i], 1e-9) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

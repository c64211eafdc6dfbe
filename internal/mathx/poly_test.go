package mathx

import (
	"math"
	"testing"
)

func TestPolyEval(t *testing.T) {
	// p(x) = 1 + 2x + 3x^2
	c := []float64{1, 2, 3}
	cases := []struct{ x, want float64 }{
		{0, 1}, {1, 6}, {2, 17}, {-1, 2},
	}
	for _, tc := range cases {
		if got := PolyEval(c, tc.x); !Close(got, tc.want, 1e-12) {
			t.Errorf("PolyEval(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestPolyFitRecoversCubic(t *testing.T) {
	want := []float64{0.5, -1, 2, 0.25}
	xs := Linspace(-2, 2, 15)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = PolyEval(want, x)
	}
	got, err := PolyFit(xs, ys, 3)
	if err != nil {
		t.Fatalf("PolyFit: %v", err)
	}
	for i := range want {
		if !Close(got[i], want[i], 1e-8) {
			t.Errorf("coef[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Error("want error when points < degree+1")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("want error for negative degree")
	}
}

func TestNumericalDerivatives(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(0.5 * x) }
	x := 1.3
	want1 := 0.5 * math.Exp(0.5*x)
	want2 := 0.25 * math.Exp(0.5*x)
	want3 := 0.125 * math.Exp(0.5*x)
	if got := Derivative(f, x); math.Abs(got-want1) > 1e-6 {
		t.Errorf("Derivative = %g, want %g", got, want1)
	}
	if got := Derivative2(f, x); math.Abs(got-want2) > 1e-5 {
		t.Errorf("Derivative2 = %g, want %g", got, want2)
	}
	if got := Derivative3(f, x); math.Abs(got-want3) > 1e-4 {
		t.Errorf("Derivative3 = %g, want %g", got, want3)
	}
}

func TestJacobianLinearMap(t *testing.T) {
	// f(x) = A x has Jacobian exactly A.
	a := MatrixFromRows([][]float64{
		{1, -2, 0.5},
		{3, 4, -1},
	})
	f := func(x []float64) []float64 { return a.MulVec(x) }
	j := Jacobian(f, []float64{0.3, -0.7, 2})
	for i := 0; i < 2; i++ {
		for k := 0; k < 3; k++ {
			if math.Abs(j.At(i, k)-a.At(i, k)) > 1e-5 {
				t.Errorf("J[%d][%d] = %g, want %g", i, k, j.At(i, k), a.At(i, k))
			}
		}
	}
}

// TestJacobianIntoMatchesJacobian: JacobianInto with a function that
// reuses its output buffer equals Jacobian with fresh slices bit for bit,
// and leaves x in the perturbation scratch.
func TestJacobianIntoMatchesJacobian(t *testing.T) {
	fresh := func(x []float64) []float64 {
		return []float64{x[0] * x[1], math.Sin(x[2]) - x[0], x[1] * x[1] * x[2]}
	}
	buf := make([]float64, 3)
	reused := func(x []float64) []float64 { return append(buf[:0], fresh(x)...) }
	x := []float64{0.3, -0.7, 2}
	want := Jacobian(fresh, x)
	j := NewMatrix(3, 3)
	fx, xp := make([]float64, 3), make([]float64, 3)
	JacobianInto(j, reused, x, fx, xp)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if j.At(r, c) != want.At(r, c) {
				t.Errorf("J[%d][%d] = %v, Jacobian %v", r, c, j.At(r, c), want.At(r, c))
			}
		}
	}
	for i := range x {
		if xp[i] != x[i] || fx[i] != fresh(x)[i] {
			t.Fatalf("scratch after JacobianInto: xp %v fx %v", xp, fx)
		}
	}
}

package optim

import (
	"math"
	"testing"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i < len(x)-1; i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func rastrigin(x []float64) float64 {
	s := 10 * float64(len(x))
	for _, v := range x {
		s += v*v - 10*math.Cos(2*math.Pi*v)
	}
	return s
}

func TestNelderMeadSphere(t *testing.T) {
	res, err := NelderMead(sphere, []float64{3, -2, 1.5}, nil)
	if err != nil {
		t.Fatalf("NelderMead: %v", err)
	}
	if res.F > 1e-9 {
		t.Errorf("final F = %g, want ~0", res.F)
	}
	if !res.Converged {
		t.Error("should converge on sphere")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	res, err := NelderMead(rosenbrock, []float64{-1.2, 1}, &NMOptions{MaxEvals: 20000})
	if err != nil {
		t.Fatalf("NelderMead: %v", err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("x = %v, want [1 1] (F = %g)", res.X, res.F)
	}
}

func TestNelderMeadEmptyInput(t *testing.T) {
	if _, err := NelderMead(sphere, nil, nil); err == nil {
		t.Error("empty x0 accepted")
	}
}

func TestLevenbergMarquardtCurveFit(t *testing.T) {
	// Fit y = a*exp(b*t) to exact data.
	ts := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
	aTrue, bTrue := 2.0, -0.7
	ys := make([]float64, len(ts))
	for i, tt := range ts {
		ys[i] = aTrue * math.Exp(bTrue*tt)
	}
	resid := func(p []float64) []float64 {
		r := make([]float64, len(ts))
		for i, tt := range ts {
			r[i] = p[0]*math.Exp(p[1]*tt) - ys[i]
		}
		return r
	}
	res, err := LevenbergMarquardt(resid, []float64{1, 0}, nil)
	if err != nil {
		t.Fatalf("LM: %v", err)
	}
	if math.Abs(res.X[0]-aTrue) > 1e-6 || math.Abs(res.X[1]-bTrue) > 1e-6 {
		t.Errorf("fit = %v, want [%g %g]", res.X, aTrue, bTrue)
	}
	if res.Cost > 1e-12 {
		t.Errorf("cost = %g, want ~0", res.Cost)
	}
	if !res.Converged {
		t.Error("LM should report convergence")
	}
}

func TestLevenbergMarquardtBounds(t *testing.T) {
	// Constrained: minimize (x-3)^2 with x <= 2 -> x = 2.
	resid := func(p []float64) []float64 { return []float64{p[0] - 3} }
	res, err := LevenbergMarquardt(resid, []float64{0}, &LMOptions{
		Lower: []float64{-1}, Upper: []float64{2},
	})
	if err != nil {
		t.Fatalf("LM: %v", err)
	}
	if math.Abs(res.X[0]-2) > 1e-9 {
		t.Errorf("bounded solution = %g, want 2", res.X[0])
	}
	if _, err := LevenbergMarquardt(resid, nil, nil); err == nil {
		t.Error("empty x0 accepted")
	}
}

func TestLevenbergMarquardtRosenbrockResiduals(t *testing.T) {
	// Rosenbrock as a residual system: r1 = 10(y - x^2), r2 = 1-x.
	resid := func(p []float64) []float64 {
		return []float64{10 * (p[1] - p[0]*p[0]), 1 - p[0]}
	}
	res, err := LevenbergMarquardt(resid, []float64{-1.2, 1}, &LMOptions{MaxIter: 500})
	if err != nil {
		t.Fatalf("LM: %v", err)
	}
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 {
		t.Errorf("x = %v, want [1 1]", res.X)
	}
}

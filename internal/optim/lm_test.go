package optim

import (
	"reflect"
	"testing"
)

// rosenbrockResiduals is the extended Rosenbrock function as a residual
// system over len(out) parameters, written into out.
func rosenbrockResiduals(out, p []float64) []float64 {
	for i := 0; i+1 < len(p); i += 2 {
		out[i] = 10 * (p[i+1] - p[i]*p[i])
		out[i+1] = 1 - p[i]
	}
	return out
}

func rosenbrockStart(n int) []float64 {
	x0 := make([]float64, n)
	for i := 0; i < n; i += 2 {
		x0[i], x0[i+1] = -1.2, 1
	}
	return x0
}

// TestLMAllocatesOncePerFit pins Levenberg-Marquardt's working set to one
// allocation per fit: with a residual function that returns a preallocated
// slice, a fit allocates the same amount at MaxIter 5 and at MaxIter 50,
// and the MaxIter 50 fit runs more than five iterations.
func TestLMAllocatesOncePerFit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	x0 := rosenbrockStart(6)
	buf := make([]float64, len(x0))
	r := func(p []float64) []float64 { return rosenbrockResiduals(buf, p) }
	fit := func(maxIter int) LMResult {
		res, err := LevenbergMarquardt(r, x0, &LMOptions{MaxIter: maxIter})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if it := fit(50).Iters; it <= 5 {
		t.Fatalf("MaxIter 50 fit ran %d iterations, want more than 5", it)
	}
	short := testing.AllocsPerRun(20, func() { fit(5) })
	long := testing.AllocsPerRun(20, func() { fit(50) })
	if short != long {
		t.Errorf("allocations per fit: %v at MaxIter 5, %v at MaxIter 50; want equal", short, long)
	}
}

// TestLMResidualMayReuseBuffer checks that a residual function returning
// the same buffer on every call fits exactly like one returning fresh
// slices: X, Cost, Iters, Evals and Converged all equal.
func TestLMResidualMayReuseBuffer(t *testing.T) {
	x0 := rosenbrockStart(4)
	buf := make([]float64, len(x0))
	reused := func(p []float64) []float64 { return rosenbrockResiduals(buf, p) }
	fresh := func(p []float64) []float64 { return rosenbrockResiduals(make([]float64, len(p)), p) }
	opts := &LMOptions{MaxIter: 200, Lower: []float64{-2, -2, -2, -2}, Upper: []float64{2, 2, 2, 2}}
	a, err := LevenbergMarquardt(reused, x0, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LevenbergMarquardt(fresh, x0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reused buffer %+v, fresh slices %+v", a, b)
	}
	if a.Iters < 3 || a.Cost > 1e-12 {
		t.Errorf("fit did not converge: %+v", a)
	}
}

// TestLMRejectsEmptyResiduals: an empty residual vector has nothing to fit.
func TestLMRejectsEmptyResiduals(t *testing.T) {
	r := func([]float64) []float64 { return nil }
	if _, err := LevenbergMarquardt(r, []float64{1}, nil); err != ErrBadInput {
		t.Errorf("error %v, want ErrBadInput", err)
	}
}

package optim

import (
	"math"
	"testing"
)

func TestDifferentialEvolutionRastrigin(t *testing.T) {
	// DE must escape Rastrigin's local minima in 4-D.
	lo := []float64{-5.12, -5.12, -5.12, -5.12}
	hi := []float64{5.12, 5.12, 5.12, 5.12}
	res, err := DifferentialEvolution(rastrigin, lo, hi, &DEOptions{
		Generations: 400, Seed: 3,
	})
	if err != nil {
		t.Fatalf("DE: %v", err)
	}
	if res.F > 1e-3 {
		t.Errorf("DE on Rastrigin: F = %g, want ~0 (x=%v)", res.F, res.X)
	}
}

func TestDifferentialEvolutionRespectsBounds(t *testing.T) {
	lo := []float64{1, -2}
	hi := []float64{2, -1}
	res, err := DifferentialEvolution(sphere, lo, hi, &DEOptions{Generations: 50, Seed: 2})
	if err != nil {
		t.Fatalf("DE: %v", err)
	}
	for i := range res.X {
		if res.X[i] < lo[i]-1e-12 || res.X[i] > hi[i]+1e-12 {
			t.Errorf("x[%d] = %g outside [%g, %g]", i, res.X[i], lo[i], hi[i])
		}
	}
	// Optimum of sphere on this box is the corner (1, -1).
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]+1) > 1e-3 {
		t.Errorf("constrained optimum = %v, want [1 -1]", res.X)
	}
}

func TestDEBadInput(t *testing.T) {
	if _, err := DifferentialEvolution(sphere, nil, nil, nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := DifferentialEvolution(sphere, []float64{1}, []float64{0}, nil); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestMetaheuristicsDeterministic(t *testing.T) {
	lo := []float64{-3, -3}
	hi := []float64{3, 3}
	r1, err := DifferentialEvolution(rosenbrock, lo, hi, &DEOptions{Generations: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DifferentialEvolution(rosenbrock, lo, hi, &DEOptions{Generations: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.F != r2.F {
		t.Errorf("same seed, different results: %g vs %g", r1.F, r2.F)
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Errorf("same seed, different x[%d]", i)
		}
	}
}

// TestOptimizerShootout runs the global optimizer on a multimodal problem
// with a fixed budget: it must land near the global minimum, which guards
// against a silent regression.
func TestOptimizerShootout(t *testing.T) {
	lo := []float64{-5.12, -5.12}
	hi := []float64{5.12, 5.12}
	r, err := DifferentialEvolution(rastrigin, lo, hi, &DEOptions{Generations: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.F > 2.5 {
		t.Errorf("DE stuck at F = %g on 2-D Rastrigin", r.F)
	}
}

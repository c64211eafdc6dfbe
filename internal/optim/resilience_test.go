package optim

import (
	"context"
	"math"
	"testing"
	"time"

	"gnsslna/internal/resilience"
)

func sphereVec(x []float64) []float64 {
	return []float64{sphere(x), sphere(x) + 1}
}

var sphereGoals = []Goal{
	{Name: "a", Target: 0, Weight: 1},
	{Name: "b", Target: 0, Weight: 1},
}

// stopCase runs one solver under the given controller and returns its
// best-so-far point and error.
type stopCase struct {
	name string
	run  func(ctrl *resilience.RunController) ([]float64, error)
}

func stopCases() []stopCase {
	lo := []float64{-2, -2, -2}
	hi := []float64{2, 2, 2}
	x0 := []float64{1.5, -1, 0.5}
	return []stopCase{
		{"de", func(ctrl *resilience.RunController) ([]float64, error) {
			r, err := DifferentialEvolution(sphere, lo, hi, &DEOptions{Pop: 20, Generations: 50, Control: ctrl})
			return r.X, err
		}},
		{"nm", func(ctrl *resilience.RunController) ([]float64, error) {
			r, err := NelderMead(sphere, x0, &NMOptions{MaxEvals: 2000, Control: ctrl})
			return r.X, err
		}},
		{"lm", func(ctrl *resilience.RunController) ([]float64, error) {
			// Rosenbrock residuals: slow enough that the fit cannot
			// converge before the tiny budgets used here run out.
			rosen := func(x []float64) []float64 {
				return []float64{
					10 * (x[1] - x[0]*x[0]), 1 - x[0],
					10 * (x[2] - x[1]*x[1]), 1 - x[1],
				}
			}
			r, err := LevenbergMarquardt(rosen, []float64{-1.2, 1, 1.5}, &LMOptions{MaxIter: 500, Control: ctrl})
			return r.X, err
		}},
		{"nsga2", func(ctrl *resilience.RunController) ([]float64, error) {
			r, err := NSGA2(sphereVec, lo, hi, &NSGA2Options{Pop: 20, Generations: 50, Control: ctrl})
			if len(r.X) == 0 {
				return nil, err
			}
			return r.X[0], err
		}},
		{"attain-standard", func(ctrl *resilience.RunController) ([]float64, error) {
			r, err := GoalAttainStandard(sphereVec, sphereGoals, lo, hi, &AttainOptions{GlobalEvals: 1000, PolishEvals: 400, Control: ctrl})
			return r.X, err
		}},
		{"attain-improved", func(ctrl *resilience.RunController) ([]float64, error) {
			r, err := GoalAttainImproved(sphereVec, sphereGoals, lo, hi, &AttainOptions{GlobalEvals: 1000, PolishEvals: 400, Control: ctrl})
			return r.X, err
		}},
		{"weighted-sum", func(ctrl *resilience.RunController) ([]float64, error) {
			r, err := WeightedSum(sphereVec, []float64{1, 1}, lo, hi, &AttainOptions{GlobalEvals: 1000, PolishEvals: 400, Control: ctrl})
			return r.X, err
		}},
	}
}

func TestSolversStopOnEvalBudget(t *testing.T) {
	for _, tc := range stopCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := resilience.NewController(resilience.ControllerOptions{MaxEvals: 25})
			x, err := tc.run(ctrl)
			st, ok := resilience.AsStopped(err)
			if !ok {
				t.Fatalf("want Stopped error, got %v", err)
			}
			if st.Reason != resilience.StopBudget {
				t.Fatalf("reason = %v, want eval-budget", st.Reason)
			}
			if len(x) == 0 {
				t.Fatal("no best-so-far point returned")
			}
			for _, v := range x {
				if math.IsNaN(v) {
					t.Fatalf("best-so-far contains NaN: %v", x)
				}
			}
		})
	}
}

func TestSolversStopOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range stopCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := resilience.NewController(resilience.ControllerOptions{Context: ctx})
			x, err := tc.run(ctrl)
			st, ok := resilience.AsStopped(err)
			if !ok {
				t.Fatalf("want Stopped error, got %v", err)
			}
			if st.Reason != resilience.StopCanceled {
				t.Fatalf("reason = %v, want canceled", st.Reason)
			}
			if len(x) == 0 {
				t.Fatal("no best-so-far point returned")
			}
		})
	}
}

func TestSolversStopOnDeadline(t *testing.T) {
	// A fake clock already past the deadline stops every solver at its
	// first poll, without real waiting.
	now := time.Unix(2000, 0)
	for _, tc := range stopCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := resilience.NewController(resilience.ControllerOptions{
				Deadline: now.Add(-time.Second),
				Clock:    func() time.Time { return now },
			})
			x, err := tc.run(ctrl)
			st, ok := resilience.AsStopped(err)
			if !ok {
				t.Fatalf("want Stopped error, got %v", err)
			}
			if st.Reason != resilience.StopDeadline {
				t.Fatalf("reason = %v, want deadline", st.Reason)
			}
			if len(x) == 0 {
				t.Fatal("no best-so-far point returned")
			}
		})
	}
}

func TestNilControllerUnchangedBehaviour(t *testing.T) {
	// Solvers without a controller must behave exactly as before the
	// resilience layer: same deterministic result, no error.
	lo := []float64{-2, -2}
	hi := []float64{2, 2}
	a, err := DifferentialEvolution(sphere, lo, hi, &DEOptions{Pop: 20, Generations: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DifferentialEvolution(sphere, lo, hi, &DEOptions{Pop: 20, Generations: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.F != b.F || a.Evals != b.Evals {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func sameResult(t *testing.T, name string, a, b Result) {
	t.Helper()
	if math.Float64bits(a.F) != math.Float64bits(b.F) {
		t.Fatalf("%s: F %v != %v", name, a.F, b.F)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: dim %d != %d", name, len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("%s: X[%d] %v != %v", name, i, a.X[i], b.X[i])
		}
	}
	if a.Evals != b.Evals {
		t.Fatalf("%s: evals %d != %d", name, a.Evals, b.Evals)
	}
}

func TestAttainRestartsRecoverFromBreaker(t *testing.T) {
	lo := []float64{-2, -2}
	hi := []float64{2, 2}
	ctrl := resilience.NewController(resilience.ControllerOptions{})
	// The raw objective fails for its first 60 calls, then heals —
	// simulating a transient fault burst. The breaker cuts attempt one
	// short; the jittered restart then completes cleanly.
	calls := 0
	raw := func(x []float64) []float64 {
		calls++
		if calls <= 60 {
			return []float64{math.NaN(), math.NaN()}
		}
		return sphereVec(x)
	}
	safe := resilience.NewSafeVector(raw, 2, &resilience.SafeOptions{BreakerK: 20, Control: ctrl})
	r, err := GoalAttainImproved(safe.Objective(), sphereGoals, lo, hi, &AttainOptions{
		GlobalEvals: 400, PolishEvals: 300, Control: ctrl, Restarts: 3,
	})
	if err != nil {
		t.Fatalf("restarted run should complete, got %v", err)
	}
	if len(r.X) == 0 || math.IsNaN(r.Gamma) {
		t.Fatalf("no usable result after restart: %+v", r)
	}
	if safe.BreakerTrips() == 0 {
		t.Fatal("breaker never tripped, test exercised nothing")
	}
}

func TestAttainRestartsExhaustOnPersistentFault(t *testing.T) {
	lo := []float64{-2, -2}
	hi := []float64{2, 2}
	ctrl := resilience.NewController(resilience.ControllerOptions{})
	raw := func([]float64) []float64 { return []float64{math.NaN(), math.NaN()} }
	safe := resilience.NewSafeVector(raw, 2, &resilience.SafeOptions{BreakerK: 10, Control: ctrl})
	_, err := GoalAttainImproved(safe.Objective(), sphereGoals, lo, hi, &AttainOptions{
		GlobalEvals: 400, PolishEvals: 300, Control: ctrl, Restarts: 2,
	})
	st, ok := resilience.AsStopped(err)
	if !ok || st.Reason != resilience.StopBreaker {
		t.Fatalf("want breaker stop after exhausted restarts, got %v", err)
	}
}

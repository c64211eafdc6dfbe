package optim

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

// rosenResidual is residual k of the Rosenbrock function written as a
// least-squares problem: 10(x[i+1]-x[i]^2) for even k, 1-x[i] for odd k.
func rosenResidual(x []float64, k int) float64 {
	i := k / 2
	if k%2 == 0 {
		return 10 * (x[i+1] - x[i]*x[i])
	}
	return 1 - x[i]
}

// rosenRMS is the root-mean-square of the Rosenbrock residuals, the shape
// of the extraction objectives.
func rosenRMS(x []float64) float64 {
	n := 2 * (len(x) - 1)
	var s float64
	for k := 0; k < n; k++ {
		r := rosenResidual(x, k)
		s += r * r
	}
	return math.Sqrt(s / float64(n))
}

// boundedRosenRMS is rosenRMS as a BoundedObjective: it tests the final
// formula on the partial sum after every residual. stops counts the
// evaluations that returned early.
func boundedRosenRMS(stops *atomic.Int64) BoundedObjective {
	return func(x []float64, bound float64) float64 {
		n := 2 * (len(x) - 1)
		var s float64
		for k := 0; k < n; k++ {
			r := rosenResidual(x, k)
			s += r * r
			if v := math.Sqrt(s / float64(n)); v > bound {
				stops.Add(1)
				return v
			}
		}
		return math.Sqrt(s / float64(n))
	}
}

// TestDEBoundedMatchesPlain runs DifferentialEvolutionBounded on a bounded
// sum of squares and DifferentialEvolution on the plain one: every
// checkpoint and the Result must be the same, serial and parallel, with
// and without a convergence tolerance, and when the bounded run resumes
// from one of its own mid-run checkpoints.
func TestDEBoundedMatchesPlain(t *testing.T) {
	lo := []float64{-2, -2, -2, -2}
	hi := []float64{2, 2, 2, 2}
	for _, workers := range []int{1, 2} {
		for _, tol := range []float64{0, 0.05} {
			opts := DEOptions{Pop: 24, Generations: 80, Seed: 3, Tol: tol, Workers: workers}
			var plainCk, boundedCk []DEState
			plainOpts, boundedOpts := opts, opts
			plainOpts.Checkpoint = func(s DEState) { plainCk = append(plainCk, s) }
			boundedOpts.Checkpoint = func(s DEState) { boundedCk = append(boundedCk, s) }
			want, err := DifferentialEvolution(rosenRMS, lo, hi, &plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			var stops atomic.Int64
			got, err := DifferentialEvolutionBounded(boundedRosenRMS(&stops), lo, hi, &boundedOpts)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("workers %d tol %g", workers, tol)
			sameResult(t, name, want, got)
			if got.Converged != want.Converged || got.Converged != (tol > 0) {
				t.Errorf("%s: converged %v, plain %v", name, got.Converged, want.Converged)
			}
			if !reflect.DeepEqual(boundedCk, plainCk) {
				t.Errorf("%s: checkpoints differ from the plain run", name)
			}
			if stops.Load() == 0 {
				t.Errorf("%s: no trial stopped early", name)
			}

			resumed := opts
			resumed.Resume = &boundedCk[len(boundedCk)/2]
			again, err := DifferentialEvolutionBounded(boundedRosenRMS(&stops), lo, hi, &resumed)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, name+" resumed", want, again)
			if again.Converged != want.Converged {
				t.Errorf("%s resumed: converged %v, plain %v", name, again.Converged, want.Converged)
			}
		}
	}
}

// TestDEBoundedNaNParentNeverStopsEarly gives part of the box a NaN
// objective: members there keep NaN values, their trials get a NaN bound,
// and the run must still match the plain one.
func TestDEBoundedNaNParentNeverStopsEarly(t *testing.T) {
	lo := []float64{-2, -2, -2}
	hi := []float64{2, 2, 2}
	nanRegion := func(x []float64) bool { return x[0] > 1.5 }
	plain := func(x []float64) float64 {
		if nanRegion(x) {
			return math.NaN()
		}
		return rosenRMS(x)
	}
	var stops, nanBounds atomic.Int64
	inner := boundedRosenRMS(&stops)
	bounded := func(x []float64, bound float64) float64 {
		if nanRegion(x) {
			return math.NaN()
		}
		v := inner(x, bound)
		if math.IsNaN(bound) {
			nanBounds.Add(1)
			if want := rosenRMS(x); math.Float64bits(v) != math.Float64bits(want) {
				t.Errorf("NaN bound: got %v, want the full value %v", v, want)
			}
		}
		return v
	}
	opts := DEOptions{Pop: 20, Generations: 30, Seed: 11}
	want, err := DifferentialEvolution(plain, lo, hi, &opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DifferentialEvolutionBounded(bounded, lo, hi, &opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "nan region", want, got)
	if nanBounds.Load() == 0 {
		t.Error("no trial ran against a NaN parent")
	}
}

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

// recorder collects copies of the vectors an objective receives, in order.
type recorder [][]float64

func (r *recorder) add(x []float64) { *r = append(*r, append([]float64(nil), x...)) }

// TestDEBoundedMatchesPlain runs DifferentialEvolutionBounded on a bounded
// sum of squares and DifferentialEvolution on the plain one: the Result must
// be the same, serial and parallel. Serial runs also record every vector
// each objective receives.
// A generation's trials are built from the population the generation before
// accepted, so equal sequences mean equal populations at every generation,
// not just an equal final best.
func TestDEBoundedMatchesPlain(t *testing.T) {
	lo := []float64{-2, -2, -2, -2}
	hi := []float64{2, 2, 2, 2}
	for _, workers := range []int{1, 2} {
		opts := DEOptions{Pop: 24, Generations: 80, Seed: 3, Workers: workers}
		var plainXs, boundedXs recorder
		var stops atomic.Int64
		plain, bounded := rosenRMS, boundedRosenRMS(&stops)
		if workers == 1 {
			plain = func(x []float64) float64 { plainXs.add(x); return rosenRMS(x) }
			inner := bounded
			bounded = func(x []float64, bound float64) float64 { boundedXs.add(x); return inner(x, bound) }
		}
		want, err := DifferentialEvolution(plain, lo, hi, &opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DifferentialEvolutionBounded(bounded, lo, hi, &opts)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("workers %d", workers)
		sameResult(t, name, want, got)
		if workers == 1 && (len(plainXs) != want.Evals || !reflect.DeepEqual(boundedXs, plainXs)) {
			t.Errorf("%s: the bounded run's %d trials differ from the plain run's %d", name, len(boundedXs), len(plainXs))
		}
		if stops.Load() == 0 {
			t.Errorf("%s: no trial stopped early", name)
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

// TestStopAboveMargin pins the DE trial predicate: it holds only once the
// KS value exceeds the bound by the margin, and never for a +Inf or NaN
// bound.
func TestStopAboveMargin(t *testing.T) {
	id := func(v []float64) float64 { return v[0] }
	for _, bound := range []float64{0, 1, -3, 250} {
		margin := ksMargin * (1 + math.Abs(bound))
		stop := stopAbove(id, bound)
		for _, c := range []struct {
			v    float64
			want bool
		}{
			{bound, false},
			{math.Nextafter(bound, math.Inf(1)), false},
			{bound + margin/2, false},
			{bound + 2*margin, true},
			{math.Inf(1), true},
			{math.NaN(), false},
		} {
			if got := stop([]float64{c.v}); got != c.want {
				t.Errorf("bound %v: stop(%v) = %v, want %v", bound, c.v, got, c.want)
			}
		}
	}
	for _, bound := range []float64{math.Inf(1), math.NaN()} {
		if stopAbove(id, bound) != nil {
			t.Errorf("bound %v: got a predicate, want nil", bound)
		}
	}
	if stopAbove(id, math.Inf(-1))([]float64{math.Inf(1)}) {
		t.Error("a -Inf bound stopped a trial")
	}
}

// pointsObjective is a bounded vector objective shaped like a band
// evaluation: each component is the running worst case over five
// "frequency points", graded one at a time, and the objective stops once
// exceeds holds for the vector so far. stops counts the early returns.
func pointsObjective(stops *atomic.Int64) (VectorObjective, BoundedVectorObjective) {
	bounded := func(x []float64, exceeds func([]float64) bool) []float64 {
		v := []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
		for k := 0; k < 5; k++ {
			w := 0.3 * float64(k)
			v[0] = math.Max(v[0], (x[0]-w)*(x[0]-w)+0.1*x[1])
			v[1] = math.Max(v[1], (x[1]+w)*(x[1]+w)-0.2*x[0])
			v[2] = math.Max(v[2], math.Abs(x[0]+x[1]-w))
			if exceeds != nil && exceeds(v) {
				stops.Add(1)
				return v
			}
		}
		return v
	}
	return func(x []float64) []float64 { return bounded(x, nil) }, bounded
}

// TestGoalAttainBoundedMatchesPlain runs the improved method on a bounded
// objective and on the same objective without its bound, serial and
// parallel: results and evaluation counts must be equal, and some DE
// trials must stop early.
func TestGoalAttainBoundedMatchesPlain(t *testing.T) {
	goals := []Goal{{"a", 0.2, 1}, {"b", 0.1, 2}, {"c", 0, 0.5}}
	lo, hi := []float64{-2, -2}, []float64{2, 2}
	for _, workers := range []int{1, 2} {
		var stops atomic.Int64
		plain, bounded := pointsObjective(&stops)
		opts := AttainOptions{Seed: 7, GlobalEvals: 1200, PolishEvals: 600, Workers: workers}
		want, err := GoalAttainImproved(plain, goals, lo, hi, &opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GoalAttainImprovedBounded(bounded, goals, lo, hi, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: bounded %+v, plain %+v", workers, got, want)
		}
		if stops.Load() == 0 {
			t.Errorf("workers %d: no trial stopped early", workers)
		}
	}
}

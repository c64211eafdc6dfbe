package optim

import (
	"math"
	"testing"
)

// convexBi is a simple bi-objective problem with a known convex Pareto
// front: f1 = x^2 + y^2, f2 = (x-2)^2 + y^2. The front is the segment
// x in [0, 2], y = 0 with f2 = (sqrt(f1)-2)^2.
func convexBi(x []float64) []float64 {
	f1 := x[0]*x[0] + x[1]*x[1]
	d := x[0] - 2
	f2 := d*d + x[1]*x[1]
	return []float64{f1, f2}
}

// concaveBi has a concave Pareto front (weighted sum cannot cover it):
// a variant of Fonseca-Fleming in 2-D.
func concaveBi(x []float64) []float64 {
	inv := 1 / math.Sqrt(2)
	var s1, s2 float64
	for _, v := range x {
		s1 += (v - inv) * (v - inv)
		s2 += (v + inv) * (v + inv)
	}
	return []float64{1 - math.Exp(-s1), 1 - math.Exp(-s2)}
}

var biBox = struct{ lo, hi []float64 }{
	lo: []float64{-4, -4},
	hi: []float64{4, 4},
}

func TestGoalAttainStandardHitsFeasibleGoals(t *testing.T) {
	// Goals (2.5, 2.5) are feasible (point x=1,y=0 gives (1,1)); gamma must
	// come out negative (over-attainment).
	goals := []Goal{
		{Name: "f1", Target: 2.5, Weight: 1},
		{Name: "f2", Target: 2.5, Weight: 1},
	}
	res, err := GoalAttainStandard(convexBi, goals, biBox.lo, biBox.hi, &AttainOptions{Seed: 7})
	if err != nil {
		t.Fatalf("GoalAttainStandard: %v", err)
	}
	if res.Gamma > 0 {
		t.Errorf("gamma = %g, want <= 0 for feasible goals (F = %v)", res.Gamma, res.F)
	}
	for i, g := range goals {
		if res.F[i] > g.Target+1e-6 {
			t.Errorf("goal %s missed: %g > %g", g.Name, res.F[i], g.Target)
		}
	}
}

func TestGoalAttainImprovedReachesParetoPoint(t *testing.T) {
	// With equal weights and goals at the ideal point (0, 0), the solution
	// must land on the Pareto front near its balanced point (1, 1).
	goals := []Goal{
		{Name: "f1", Target: 0, Weight: 1},
		{Name: "f2", Target: 0, Weight: 1},
	}
	res, err := GoalAttainImproved(convexBi, goals, biBox.lo, biBox.hi, &AttainOptions{Seed: 7})
	if err != nil {
		t.Fatalf("GoalAttainImproved: %v", err)
	}
	// The adaptive normalization balances in *range-normalized* units, so
	// the exact landing point depends on the observed spans; the essential
	// property is that it lands ON the Pareto front (f2 = (2-sqrt(f1))^2)
	// in its interior, away from the extremes.
	onFront := (2 - math.Sqrt(res.F[0])) * (2 - math.Sqrt(res.F[0]))
	if math.Abs(res.F[1]-onFront) > 0.02 {
		t.Errorf("point F = %v is off the analytic front (want f2 ~ %g)", res.F, onFront)
	}
	if res.F[0] < 0.3 || res.F[0] > 2.5 {
		t.Errorf("front point F = %v not in the balanced interior", res.F)
	}
}

func TestImprovedBeatsStandardOnSkewedScales(t *testing.T) {
	// Multiply f2 by 1000: the standard method with unit weights stalls on
	// the badly scaled objective; the improved method's adaptive
	// normalization must find a substantially better-balanced point.
	skewed := func(x []float64) []float64 {
		f := convexBi(x)
		return []float64{f[0], 1000 * f[1]}
	}
	goals := []Goal{
		{Name: "f1", Target: 0, Weight: 1},
		{Name: "f2", Target: 0, Weight: 1},
	}
	opts := &AttainOptions{Seed: 11, GlobalEvals: 3000, PolishEvals: 2000}
	std, err := GoalAttainStandard(skewed, goals, biBox.lo, biBox.hi, opts)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := GoalAttainImproved(skewed, goals, biBox.lo, biBox.hi, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The standard method optimizes almost only f2 (weight swamped); the
	// improved one should keep f1 much smaller.
	if imp.F[0] >= std.F[0] {
		t.Logf("improved F = %v vs standard F = %v", imp.F, std.F)
		// Not strictly required on every seed, but the balanced distance
		// to the utopia point must not be worse.
		du := math.Hypot(imp.F[0], imp.F[1]/1000)
		ds := math.Hypot(std.F[0], std.F[1]/1000)
		if du > ds*1.05 {
			t.Errorf("improved method worse than standard on skewed scales: %g vs %g", du, ds)
		}
	}
}

func TestWeightedSumMissesConcaveFront(t *testing.T) {
	// On a concave front, weighted-sum lands at (or near) an extreme for
	// any weights, while improved goal attainment reaches the middle.
	goals := []Goal{
		{Name: "f1", Target: 0, Weight: 1},
		{Name: "f2", Target: 0, Weight: 1},
	}
	opts := &AttainOptions{Seed: 5}
	ga, err := GoalAttainImproved(concaveBi, goals, biBox.lo, biBox.hi, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := WeightedSum(concaveBi, []float64{0.5, 0.5}, biBox.lo, biBox.hi, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Balance metric: |f1 - f2| should be small for goal attainment.
	gaBal := math.Abs(ga.F[0] - ga.F[1])
	wsBal := math.Abs(ws.F[0] - ws.F[1])
	if gaBal > 0.1 {
		t.Errorf("goal attainment not balanced on concave front: F = %v", ga.F)
	}
	if wsBal < 0.5 {
		t.Errorf("weighted sum unexpectedly reached concave middle: F = %v", ws.F)
	}
}

func TestGoalValidation(t *testing.T) {
	goals := []Goal{{Name: "bad", Target: 0, Weight: 0}}
	if _, err := GoalAttainStandard(convexBi, goals, biBox.lo, biBox.hi, nil); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := GoalAttainImproved(nil, nil, nil, nil, nil); err == nil {
		t.Error("nil objective accepted")
	}
	if _, err := WeightedSum(convexBi, nil, biBox.lo, biBox.hi, nil); err == nil {
		t.Error("empty weights accepted")
	}
}

func TestGoalAttainParetoSweepTracesFront(t *testing.T) {
	// Sweeping the goal ray across weights must trace distinct front points
	// ordered along the front.
	var front [][]float64
	for _, w := range []float64{0.2, 0.5, 1, 2, 5} {
		goals := []Goal{
			{Name: "f1", Target: 0, Weight: w},
			{Name: "f2", Target: 0, Weight: 1},
		}
		res, err := GoalAttainImproved(convexBi, goals, biBox.lo, biBox.hi,
			&AttainOptions{Seed: 13, GlobalEvals: 3000, PolishEvals: 2000})
		if err != nil {
			t.Fatal(err)
		}
		front = append(front, res.F)
	}
	// f1 must increase along the sweep (larger w relaxes f1).
	for i := 1; i < len(front); i++ {
		if front[i][0] < front[i-1][0]-0.05 {
			t.Errorf("front not ordered: f1[%d] = %g < f1[%d] = %g",
				i, front[i][0], i-1, front[i-1][0])
		}
	}
	// All points near-Pareto: f2 ~ (2-sqrt(f1))^2 on this problem.
	for _, f := range front {
		want := (2 - math.Sqrt(f[0])) * (2 - math.Sqrt(f[0]))
		if math.Abs(f[1]-want) > 0.1 {
			t.Errorf("point %v off the analytic front (want f2 ~ %g)", f, want)
		}
	}
}

// TestScalarizationGammaIsNaNSentinel pins the documented contract: the
// scalarization baselines have no attainment factor, so Gamma must be the
// NaN sentinel — detectable only via math.IsNaN, never ==.
func TestScalarizationGammaIsNaNSentinel(t *testing.T) {
	opts := &AttainOptions{Seed: 9, GlobalEvals: 400, PolishEvals: 200}
	ws, err := WeightedSum(convexBi, []float64{0.5, 0.5}, biBox.lo, biBox.hi, opts)
	if err != nil {
		t.Fatalf("WeightedSum: %v", err)
	}
	if !math.IsNaN(ws.Gamma) {
		t.Errorf("WeightedSum Gamma = %v, want NaN sentinel", ws.Gamma)
	}
	for i, f := range ws.F {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("objective %d non-finite (%v) despite NaN-gamma sentinel", i, f)
		}
	}
}

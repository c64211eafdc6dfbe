package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"gnsslna/internal/device"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
)

// quickAttain is the quick design flow's goal-attainment budget.
func quickAttain(seed int64, workers int) *optim.AttainOptions {
	return &optim.AttainOptions{Seed: seed, GlobalEvals: 1500, PolishEvals: 900, Workers: workers}
}

// attainFunc is the signature of Optimize's goal-attainment seam.
type attainFunc = func(optim.BoundedVectorObjective, []optim.Goal, []float64, []float64, *optim.AttainOptions) (optim.AttainResult, error)

// swapAttain replaces Optimize's goal attainment with wrap(original) for
// the rest of the test.
func swapAttain(t *testing.T, wrap func(orig attainFunc) attainFunc) {
	t.Helper()
	orig := attainBounded
	t.Cleanup(func() { attainBounded = orig })
	attainBounded = wrap(orig)
}

// ignoreBound runs the objective to the end on every call.
func ignoreBound(orig attainFunc) attainFunc {
	return func(f optim.BoundedVectorObjective, goals []optim.Goal, lo, hi []float64, opts *optim.AttainOptions) (optim.AttainResult, error) {
		plain := func(x []float64, _ func([]float64) bool) []float64 { return f(x, nil) }
		return orig(plain, goals, lo, hi, opts)
	}
}

// isUnusable reports whether v is the uniform 99 vector of its length.
func isUnusable(v []float64) bool {
	if len(v) == 0 || len(v) > len(unusable) {
		return false
	}
	for i := range v {
		if v[i] != unusable[i] {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// diffEvaluation lists the fields of two evaluations that differ under ==.
func diffEvaluation(what string, a, b Evaluation) []string {
	var out []string
	if a.Design != b.Design {
		out = append(out, what+".Design")
	}
	for _, f := range [][3]any{
		{"WorstNFdB", a.WorstNFdB, b.WorstNFdB}, {"MinGTdB", a.MinGTdB, b.MinGTdB},
		{"WorstS11dB", a.WorstS11dB, b.WorstS11dB}, {"WorstS22dB", a.WorstS22dB, b.WorstS22dB},
		{"StabMargin", a.StabMargin, b.StabMargin}, {"IdsA", a.IdsA, b.IdsA}, {"PdcW", a.PdcW, b.PdcW},
	} {
		if !sameFloat(f[1].(float64), f[2].(float64)) {
			out = append(out, what+"."+f[0].(string))
		}
	}
	if len(a.Points) != len(b.Points) {
		return append(out, what+".Points length")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			out = append(out, fmt.Sprintf("%s.Points[%d]", what, i))
		}
	}
	return out
}

// TestOptimizeBoundedMatchesUnbounded runs quick design flows on the golden
// device with the bounded objective and with one that ignores its bound:
// every DesignResult float must be equal (==) and the evaluation counts
// too. The bounded side keeps a memo of its own, so a stopped evaluation
// that reached the memo would show; the unbounded side runs without one.
func TestOptimizeBoundedMatchesUnbounded(t *testing.T) {
	if raceEnabled {
		t.Skip("60 design-flow pairs; the race pass runs TestOptimizeHonoursBoundedContract")
	}
	if testing.Short() {
		t.Skip("60 design-flow pairs")
	}
	for _, npoints := range []int{7, 11} {
		boundedPairs(t, fmt.Sprintf("NPoints %d", npoints), 15, func(seed int64, workers int, withBound bool) DesignResult {
			d := NewDesigner(NewBuilder(device.Golden()))
			d.Spec.NPoints = npoints
			d.Memo = nil
			if withBound {
				d.Memo = NewEvalMemo(1 << 12)
			}
			res, err := d.Optimize(quickAttain(seed, workers))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, func(got, want DesignResult) []string {
			var diffs []string
			if got.Design != want.Design || got.Snapped != want.Snapped {
				diffs = append(diffs, "Design/Snapped")
			}
			if !sameFloat(got.Gamma, want.Gamma) {
				diffs = append(diffs, "Gamma")
			}
			diffs = append(diffs, diffEvaluation("Eval", got.Eval, want.Eval)...)
			diffs = append(diffs, diffEvaluation("SnappedEval", got.SnappedEval, want.SnappedEval)...)
			if got.Evals != want.Evals {
				diffs = append(diffs, fmt.Sprintf("Evals %d vs %d", got.Evals, want.Evals))
			}
			return diffs
		})
	}
}

// quickTwoStageSpec is E11's quick cascade spec.
func quickTwoStageSpec() TwoStageSpec {
	spec := DefaultTwoStageSpec()
	spec.Spec.NPoints = 5
	return spec
}

// boundedPairs runs a quick design flow for seeds 1 to seeds at Workers 1
// and 2, once with the bounded objective and once with one that ignores
// its bound, and reports the fields diff finds different.
func boundedPairs[R any](t *testing.T, label string, seeds int64, flow func(seed int64, workers int, withBound bool) R, diff func(got, want R) []string) {
	t.Helper()
	bounded := attainBounded
	defer func() { attainBounded = bounded }()
	unbounded := ignoreBound(bounded)
	for seed := int64(1); seed <= seeds; seed++ {
		for _, workers := range []int{1, 2} {
			attainBounded = bounded
			got := flow(seed, workers, true)
			attainBounded = unbounded
			want := flow(seed, workers, false)
			if diffs := diff(got, want); len(diffs) > 0 {
				t.Errorf("%s seed %d workers %d: the bounded run differs from the unbounded one in %v", label, seed, workers, diffs)
			}
		}
	}
}

// TestOptimizeTwoStageBoundedMatchesUnbounded runs quick two-stage flows
// with and without the bound: both designs, every float and the
// evaluation counts must be equal (==).
func TestOptimizeTwoStageBoundedMatchesUnbounded(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("20 two-stage flows; the race pass runs TestOptimizeTwoStageHonoursBoundedContract")
	}
	spec := quickTwoStageSpec()
	boundedPairs(t, "two-stage", 5, func(seed int64, workers int, _ bool) TwoStageResult {
		res, err := NewDesigner(NewBuilder(device.Golden())).OptimizeTwoStage(spec, quickAttain(seed, workers))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}, func(got, want TwoStageResult) []string {
		if got != want {
			return []string{fmt.Sprintf("%+v vs %+v", got, want)}
		}
		return nil
	})
}

// TestOptimizeDistributedBoundedMatchesUnbounded runs quick distributed
// design flows with and without the bound: the design, every Evaluation
// field, Gamma and the evaluation counts must be equal (==).
func TestOptimizeDistributedBoundedMatchesUnbounded(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("20 distributed design flows; the race pass runs TestOptimizeDistributedHonoursBoundedContract")
	}
	boundedPairs(t, "distributed", 5, func(seed int64, workers int, _ bool) DistributedResult {
		res, err := fastDesigner().OptimizeDistributed(quickAttain(seed, workers))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}, func(got, want DistributedResult) []string {
		var diffs []string
		if got.Design != want.Design {
			diffs = append(diffs, "Design")
		}
		if !sameFloat(got.Gamma, want.Gamma) {
			diffs = append(diffs, "Gamma")
		}
		if got.Evals != want.Evals {
			diffs = append(diffs, fmt.Sprintf("Evals %d vs %d", got.Evals, want.Evals))
		}
		return append(diffs, diffEvaluation("Eval", got.Eval, want.Eval)...)
	})
}

// checkBoundedContract wraps the bounded objective of a real design flow
// in a checker that also computes the full vector on every bounded call. A
// call that returns anything but the full vector must have stopped on a
// vector its predicate accepts, below the full one or with the full one
// unusable, and the full vector's KS value must exceed the bound too; at
// least one trial must stop.
func checkBoundedContract(t *testing.T, flow func() error) {
	t.Helper()
	var calls, stops atomic.Int64
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	swapAttain(t, func(orig attainFunc) attainFunc {
		return func(f optim.BoundedVectorObjective, goals []optim.Goal, lo, hi []float64, opts *optim.AttainOptions) (optim.AttainResult, error) {
			checked := func(x []float64, exceeds func([]float64) bool) []float64 {
				if exceeds == nil {
					return f(x, nil)
				}
				calls.Add(1)
				full := f(x, nil)
				got := f(x, exceeds)
				same := len(got) == len(full)
				for i := range got {
					same = same && math.Float64bits(got[i]) == math.Float64bits(full[i])
				}
				if same {
					return got
				}
				stops.Add(1)
				if !exceeds(got) {
					fail("x %v: stopped on %v, which the predicate rejects", x, got)
				}
				if !exceeds(full) {
					fail("x %v: stopped on %v, but the full vector %v does not lose", x, got, full)
				}
				if !isUnusable(full) {
					for i := range got {
						if !(got[i] <= full[i]) {
							fail("x %v: stopped vector %v is not below the full vector %v", x, got, full)
							break
						}
					}
				}
				return got
			}
			return orig(checked, goals, lo, hi, opts)
		}
	})
	if err := flow(); err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Error(f)
	}
	if calls.Load() == 0 || stops.Load() == 0 {
		t.Fatalf("%d bounded calls, %d stopped: want both > 0", calls.Load(), stops.Load())
	}
	t.Logf("%d of %d bounded calls stopped early", stops.Load(), calls.Load())
}

// TestOptimizeHonoursBoundedContract checks the bounded contract on a real
// quick Optimize at two workers.
func TestOptimizeHonoursBoundedContract(t *testing.T) {
	d := fastDesigner()
	d.Memo = nil
	checkBoundedContract(t, func() error {
		_, err := d.Optimize(quickAttain(2, 2))
		return err
	})
}

// TestOptimizeTwoStageHonoursBoundedContract checks it on a quick
// two-stage flow.
func TestOptimizeTwoStageHonoursBoundedContract(t *testing.T) {
	d := fastDesigner()
	checkBoundedContract(t, func() error {
		_, err := d.OptimizeTwoStage(quickTwoStageSpec(), quickAttain(2, 2))
		return err
	})
}

// TestOptimizeDistributedHonoursBoundedContract checks it on a quick
// distributed design flow.
func TestOptimizeDistributedHonoursBoundedContract(t *testing.T) {
	d := fastDesigner()
	checkBoundedContract(t, func() error {
		_, err := d.OptimizeDistributed(quickAttain(2, 2))
		return err
	})
}

// TestTrialNeedsTheUnusableVectorToStop hands evaluations a predicate that
// accepts every partial vector but rejects the unusable one: since a later
// failure would produce that vector, no evaluation may stop, and each must
// grade every point and equal Evaluate. A predicate that accepts both stops
// after the first point.
func TestTrialNeedsTheUnusableVectorToStop(t *testing.T) {
	d := fastDesigner()
	d.Memo = nil
	grid, stab := d.sweepGrids()
	notUnusable := func(v []float64) bool { return !isUnusable(v) }
	always := func([]float64) bool { return true }
	lo, hi := DesignBounds()
	for k := 0; k < 8; k++ {
		v := make([]float64, len(lo))
		for i := range v {
			v[i] = lo[i] + (hi[i]-lo[i])*float64((k*(i+3))%8)/7
		}
		x := DesignFromVector(v)
		want, err := d.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}

		tr := trial{exceeds: notUnusable, obj: make([]float64, len(unusable))}
		got, err := d.evaluate(x, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if tr.stopped || tr.computed != len(grid)+len(stab) {
			t.Errorf("design %d: stopped %v after %d points, want no stop after %d", k, tr.stopped, tr.computed, len(grid)+len(stab))
		}
		if diffs := diffEvaluation("Evaluation", got, want); len(diffs) > 0 {
			t.Errorf("design %d: differs from Evaluate in %v", k, diffs)
		}

		tr = trial{exceeds: always, obj: make([]float64, len(unusable))}
		got, err = d.evaluate(x, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.stopped || tr.computed != 1 || got.Points != nil {
			t.Errorf("design %d: always-true predicate: stopped %v after %d points (Points %v), want a stop after 1", k, tr.stopped, tr.computed, got.Points != nil)
		}
	}
}

// TestEdgeFirstVisitsEveryPointOnce checks the grading order.
func TestEdgeFirstVisitsEveryPointOnce(t *testing.T) {
	if got := fmt.Sprint(func() (o []int) {
		for k := 0; k < 7; k++ {
			o = append(o, edgeFirst(k, 7))
		}
		return o
	}()); got != "[0 6 1 5 2 4 3]" {
		t.Errorf("order for 7 points = %s", got)
	}
	for n := 1; n <= 12; n++ {
		seen := make([]bool, n)
		for k := 0; k < n; k++ {
			i := edgeFirst(k, n)
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("n %d: step %d visits %d twice or out of range", n, k, i)
			}
			seen[i] = true
		}
	}
}

// sampleSink records the KindSample events of one scope.
type sampleSink struct {
	mu     sync.Mutex
	scope  string
	values []float64
}

func (s *sampleSink) Observe(e obs.Event) {
	if e.Kind == obs.KindSample && e.Scope == s.scope {
		s.mu.Lock()
		s.values = append(s.values, e.Value)
		s.mu.Unlock()
	}
}

// TestOptimizeReportsComputedShare expects exactly one computed-share
// sample from a quick Optimize, strictly between 0 and 1.
func TestOptimizeReportsComputedShare(t *testing.T) {
	d := fastDesigner()
	d.Memo = nil
	sink := &sampleSink{scope: "core.design.computed"}
	opts := quickAttain(4, 1)
	opts.Observer = sink
	if _, err := d.Optimize(opts); err != nil {
		t.Fatal(err)
	}
	if len(sink.values) != 1 {
		t.Fatalf("%d computed-share samples, want 1", len(sink.values))
	}
	if v := sink.values[0]; !(v > 0 && v < 1) {
		t.Fatalf("computed share %v, want in (0, 1)", v)
	}
	t.Logf("DE trials computed %.3f of their points", sink.values[0])
}

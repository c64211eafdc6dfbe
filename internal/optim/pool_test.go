package optim

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"gnsslna/internal/obs"
)

func TestEvalPoolWorkers(t *testing.T) {
	if got := NewEvalPool(0).Workers(); got != 1 {
		t.Fatalf("NewEvalPool(0).Workers() = %d, want 1", got)
	}
	if got := NewEvalPool(1).Workers(); got != 1 {
		t.Fatalf("NewEvalPool(1).Workers() = %d, want 1", got)
	}
	var nilPool *EvalPool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("(*EvalPool)(nil).Workers() = %d, want 1", got)
	}
	if got := NewEvalPool(7).Workers(); got != 7 {
		t.Fatalf("NewEvalPool(7).Workers() = %d, want 7", got)
	}
}

func TestEvalPoolEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 237
		var hits [n]atomic.Int64
		NewEvalPool(workers).Each(n, func(i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestEvalPoolMapWritesByIndex(t *testing.T) {
	xs := make([][]float64, 50)
	for i := range xs {
		xs[i] = []float64{float64(i)}
	}
	out := make([][]float64, len(xs))
	NewEvalPool(4).mapVector(func(x []float64) []float64 { return []float64{3 * x[0]} }, xs, out, nil)
	for i := range out {
		if out[i][0] != 3*float64(i) {
			t.Fatalf("out[%d] = %g, want %g", i, out[i][0], 3*float64(i))
		}
	}
}

func TestEvalPoolPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic in fn did not propagate", workers)
				}
			}()
			NewEvalPool(workers).Each(64, func(i int) {
				if i == 17 {
					panic("objective exploded")
				}
			})
		}()
	}
}

// sameResult asserts bit-identical scalar-solver outcomes.
func samePoolResult(t *testing.T, name string, a, b Result, workers int) {
	t.Helper()
	if a.Evals != b.Evals {
		t.Fatalf("%s: Workers=%d evals %d != serial %d", name, workers, b.Evals, a.Evals)
	}
	if math.Float64bits(a.F) != math.Float64bits(b.F) {
		t.Fatalf("%s: Workers=%d F %v != serial %v", name, workers, b.F, a.F)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: Workers=%d dim %d != serial %d", name, workers, len(b.X), len(a.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("%s: Workers=%d X[%d] %v != serial %v", name, workers, i, b.X[i], a.X[i])
		}
	}
}

// doneEvals sums the eval counts of the done events a run journals — the
// tally the journal records for the run.
type doneEvals struct{ total int64 }

func (d *doneEvals) Observe(e obs.Event) {
	if e.Kind == obs.KindDone {
		d.total += e.Evals
	}
}

func workerCounts() []int {
	counts := []int{4}
	if n := runtime.NumCPU(); n != 4 && n > 1 {
		counts = append(counts, n)
	}
	return counts
}

func TestDEBitIdenticalAcrossWorkers(t *testing.T) {
	lo, hi := []float64{-2, -2}, []float64{2, 2}
	run := func(workers int) (Result, int64) {
		tally := &doneEvals{}
		res, err := DifferentialEvolution(rosenbrock, lo, hi, &DEOptions{
			Pop: 24, Generations: 60, Seed: 7, Workers: workers,
			Observer: obs.Func(tally.Observe),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, tally.total
	}
	serial, serialEvals := run(1)
	for _, w := range workerCounts() {
		par, parEvals := run(w)
		samePoolResult(t, "DE", serial, par, w)
		if parEvals != serialEvals {
			t.Fatalf("DE: Workers=%d journaled evals %d != serial %d", w, parEvals, serialEvals)
		}
	}
}

func TestNSGA2BitIdenticalAcrossWorkers(t *testing.T) {
	obj := func(x []float64) []float64 {
		d := x[0] - 2
		return []float64{x[0]*x[0] + x[1]*x[1], d*d + x[1]*x[1]}
	}
	lo, hi := []float64{-4, -4}, []float64{4, 4}
	run := func(workers int) NSGA2Result {
		res, err := NSGA2(obj, lo, hi, &NSGA2Options{
			Pop: 24, Generations: 30, Seed: 7, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range workerCounts() {
		par := run(w)
		if par.Evals != serial.Evals {
			t.Fatalf("NSGA-II: Workers=%d evals %d != serial %d", w, par.Evals, serial.Evals)
		}
		if len(par.X) != len(serial.X) {
			t.Fatalf("NSGA-II: Workers=%d front size %d != serial %d", w, len(par.X), len(serial.X))
		}
		for i := range serial.X {
			for j := range serial.X[i] {
				if math.Float64bits(par.X[i][j]) != math.Float64bits(serial.X[i][j]) {
					t.Fatalf("NSGA-II: Workers=%d X[%d][%d] %v != serial %v",
						w, i, j, par.X[i][j], serial.X[i][j])
				}
			}
			for j := range serial.F[i] {
				if math.Float64bits(par.F[i][j]) != math.Float64bits(serial.F[i][j]) {
					t.Fatalf("NSGA-II: Workers=%d F[%d][%d] %v != serial %v",
						w, i, j, par.F[i][j], serial.F[i][j])
				}
			}
		}
	}
}

func TestGoalAttainBitIdenticalAcrossWorkers(t *testing.T) {
	obj := func(x []float64) []float64 {
		d := x[0] - 2
		return []float64{x[0]*x[0] + x[1]*x[1], d*d + x[1]*x[1]}
	}
	goals := []Goal{{Target: 0, Weight: 1}, {Target: 0, Weight: 1}}
	lo, hi := []float64{-4, -4}, []float64{4, 4}
	run := func(workers int) AttainResult {
		res, err := GoalAttainImproved(obj, goals, lo, hi, &AttainOptions{
			Seed: 7, GlobalEvals: 1200, PolishEvals: 600, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range workerCounts() {
		par := run(w)
		if par.Evals != serial.Evals {
			t.Fatalf("attain: Workers=%d evals %d != serial %d", w, par.Evals, serial.Evals)
		}
		if math.Float64bits(par.Gamma) != math.Float64bits(serial.Gamma) {
			t.Fatalf("attain: Workers=%d gamma %v != serial %v", w, par.Gamma, serial.Gamma)
		}
		for i := range serial.X {
			if math.Float64bits(par.X[i]) != math.Float64bits(serial.X[i]) {
				t.Fatalf("attain: Workers=%d X[%d] %v != serial %v", w, i, par.X[i], serial.X[i])
			}
		}
	}
}

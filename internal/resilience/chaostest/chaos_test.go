package chaostest_test

import (
	"math"
	"testing"
	"time"

	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/resilience/chaostest"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func box(dim int) (lo, hi []float64) {
	lo, hi = make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = -5, 5
	}
	return lo, hi
}

func TestInjectorSchedule(t *testing.T) {
	in := &chaostest.Injector{NaNEvery: 3, InfEvery: 5}
	f := in.Wrap(sphere)
	x := []float64{1, 2}
	for n := int64(1); n <= 15; n++ {
		v := f(x)
		switch {
		case n%3 == 0:
			if !math.IsNaN(v) {
				t.Errorf("call %d: want NaN, got %v", n, v)
			}
		case n%5 == 0:
			if !math.IsInf(v, 1) {
				t.Errorf("call %d: want +Inf, got %v", n, v)
			}
		default:
			if v != 5 {
				t.Errorf("call %d: want 5, got %v", n, v)
			}
		}
	}
	if in.Calls() != 15 {
		t.Errorf("calls = %d, want 15", in.Calls())
	}
	in.Reset()
	if in.Calls() != 0 {
		t.Error("Reset did not zero the counter")
	}
}

func TestSafeQuarantinesChaos(t *testing.T) {
	in := &chaostest.Injector{PanicEvery: 7, NaNEvery: 3}
	safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{Penalty: 1e6})
	obj := safe.Objective()
	for i := 0; i < 100; i++ {
		if v := obj([]float64{1, 1}); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("eval %d leaked a non-finite value: %v", i, v)
		}
	}
	if safe.Panics() == 0 {
		t.Error("no injected panic was recovered")
	}
	if safe.NonFinite() == 0 {
		t.Error("no injected NaN was quarantined")
	}
}

func TestBreakerTripsUnderSustainedFaults(t *testing.T) {
	in := &chaostest.Injector{NaNEvery: 1}
	ctrl := resilience.NewController(resilience.ControllerOptions{})
	safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{
		BreakerK: 10, Control: ctrl,
	})
	obj := safe.Objective()
	for i := 0; i < 10; i++ {
		obj([]float64{1})
	}
	st, ok := resilience.AsStopped(ctrl.Check())
	if !ok || st.Reason != resilience.StopBreaker {
		t.Fatalf("controller not tripped after 10 sustained faults: %v", ctrl.Check())
	}
	if safe.BreakerTrips() != 1 {
		t.Errorf("trips = %d, want 1", safe.BreakerTrips())
	}
}

func TestDeadlineStopsSlowEvals(t *testing.T) {
	in := &chaostest.Injector{SlowEvery: 1, SlowFor: 2 * time.Millisecond}
	ctrl := resilience.NewController(resilience.ControllerOptions{
		Deadline: time.Now().Add(25 * time.Millisecond),
	})
	lo, hi := box(3)
	start := time.Now()
	res, err := optim.DifferentialEvolution(in.Wrap(sphere), lo, hi, &optim.DEOptions{
		Pop: 20, Generations: 10000, Seed: 1, Control: ctrl,
	})
	st, ok := resilience.AsStopped(err)
	if !ok || st.Reason != resilience.StopDeadline {
		t.Fatalf("want deadline stop, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	if len(res.X) == 0 {
		t.Error("no best-so-far point returned")
	}
}

func TestRestartPolicyHealsTransientChaos(t *testing.T) {
	// The first 40 evaluations all fault; the breaker (K=20) trips on the
	// first attempt, the restart policy resets it, and a later attempt
	// runs on the healed objective.
	in := &chaostest.Injector{FailFirst: 40}
	ctrl := resilience.NewController(resilience.ControllerOptions{})
	safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{
		BreakerK: 20, Control: ctrl,
	})
	lo, hi := box(2)
	policy := resilience.RestartPolicy{Seed: 3, MaxRestarts: 3, Control: ctrl}
	attempt, best, err := policy.Run(func(seed int64) (float64, error) {
		res, err := optim.DifferentialEvolution(safe.Objective(), lo, hi, &optim.DEOptions{
			Pop: 20, Generations: 30, Seed: seed, Control: ctrl,
		})
		return res.F, err
	})
	if err != nil {
		t.Fatalf("restart policy did not recover: %v", err)
	}
	if attempt == 0 {
		t.Error("recovery reported on attempt 0: breaker never tripped")
	}
	if best > 1e-3 {
		t.Errorf("healed run did not converge: best %g", best)
	}
	if safe.BreakerTrips() == 0 {
		t.Error("breaker never tripped")
	}
}

// TestParallelSolversSurviveChaos drives the population solver (DE) with
// the evaluation fan-out enabled over a panicking, NaN-spewing objective
// behind the quarantine wrapper: every fault must be quarantined in
// whichever worker goroutine evaluates it, no panic may escape, no batch
// may be lost, and the run must terminate (no deadlock).
func TestParallelSolversSurviveChaos(t *testing.T) {
	lo, hi := box(3)
	const workers = 4
	solvers := []struct {
		name string
		run  func(obj func([]float64) float64) (optim.Result, error)
	}{
		{"de", func(obj func([]float64) float64) (optim.Result, error) {
			return optim.DifferentialEvolution(obj, lo, hi, &optim.DEOptions{
				Pop: 20, Generations: 30, Seed: 1, Workers: workers,
			})
		}},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			in := &chaostest.Injector{PanicEvery: 11, NaNEvery: 7}
			safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{Penalty: 1e6})
			res, err := s.run(safe.Objective())
			if err != nil {
				t.Fatalf("solver failed under parallel chaos: %v", err)
			}
			if len(res.X) == 0 || math.IsNaN(res.F) || math.IsInf(res.F, 0) {
				t.Fatalf("unusable result under parallel chaos: %+v", res)
			}
			if safe.Panics() == 0 && safe.NonFinite() == 0 {
				t.Error("injector never fired: parallel chaos sweep vacuous")
			}
		})
	}
}

// TestParallelPanicPropagatesUnwrapped pins the worker-pool contract for an
// objective with no quarantine wrapper: a panic in a worker is re-raised on
// the driving goroutine after the batch drains — never a deadlock, never a
// silently lost batch.
func TestParallelPanicPropagatesUnwrapped(t *testing.T) {
	lo, hi := box(2)
	in := &chaostest.Injector{PanicEvery: 13}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		_, _ = optim.DifferentialEvolution(in.Wrap(sphere), lo, hi, &optim.DEOptions{
			Pop: 20, Generations: 50, Seed: 1, Workers: 4,
		})
		done <- nil
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("injected panic vanished: neither propagated nor deadlocked")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel solver deadlocked on a panicking objective")
	}
}

// TestParallelDeadlineStopsStalledWorkers verifies the controller still
// stops a run whose evaluations stall inside worker goroutines.
func TestParallelDeadlineStopsStalledWorkers(t *testing.T) {
	in := &chaostest.Injector{SlowEvery: 1, SlowFor: 2 * time.Millisecond}
	ctrl := resilience.NewController(resilience.ControllerOptions{
		Deadline: time.Now().Add(25 * time.Millisecond),
	})
	lo, hi := box(3)
	start := time.Now()
	res, err := optim.DifferentialEvolution(in.Wrap(sphere), lo, hi, &optim.DEOptions{
		Pop: 20, Generations: 10000, Seed: 1, Control: ctrl, Workers: 4,
	})
	st, ok := resilience.AsStopped(err)
	if !ok || st.Reason != resilience.StopDeadline {
		t.Fatalf("want deadline stop, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	if len(res.X) == 0 {
		t.Error("no best-so-far point returned")
	}
}

// TestAllSolversSurviveChaos sweeps every scalar solver over a panicking,
// NaN-spewing objective behind the quarantine wrapper: no panic may escape
// and every solver must return a usable point.
func TestAllSolversSurviveChaos(t *testing.T) {
	lo, hi := box(3)
	x0 := []float64{3, -2, 4}
	solvers := []struct {
		name string
		run  func(obj func([]float64) float64) (optim.Result, error)
	}{
		{"de", func(obj func([]float64) float64) (optim.Result, error) {
			return optim.DifferentialEvolution(obj, lo, hi, &optim.DEOptions{Pop: 20, Generations: 30, Seed: 1})
		}},
		{"nm", func(obj func([]float64) float64) (optim.Result, error) {
			return optim.NelderMead(obj, x0, &optim.NMOptions{MaxEvals: 600})
		}},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			in := &chaostest.Injector{PanicEvery: 11, NaNEvery: 7}
			safe := resilience.NewSafe(in.Wrap(sphere), &resilience.SafeOptions{Penalty: 1e6})
			res, err := s.run(safe.Objective())
			if err != nil {
				t.Fatalf("solver failed under chaos: %v", err)
			}
			if len(res.X) == 0 || math.IsNaN(res.F) || math.IsInf(res.F, 0) {
				t.Fatalf("unusable result under chaos: %+v", res)
			}
			if safe.Panics() == 0 && safe.NonFinite() == 0 {
				t.Error("injector never fired: chaos sweep vacuous")
			}
		})
	}
}

package resilience

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"gnsslna/internal/obs"
)

func TestNilControllerIsInert(t *testing.T) {
	var c *RunController
	if err := c.Check(); err != nil {
		t.Fatalf("nil controller Check: %v", err)
	}
	c.AddEvals(5)
	c.TripBreaker()
	c.ResetBreaker()
	if c.Evals() != 0 || c.BreakerTripped() {
		t.Fatalf("nil controller mutated: evals=%d tripped=%v", c.Evals(), c.BreakerTripped())
	}
}

func TestControllerStopReasons(t *testing.T) {
	t.Run("budget", func(t *testing.T) {
		c := NewController(ControllerOptions{MaxEvals: 10})
		if err := c.Check(); err != nil {
			t.Fatalf("fresh controller: %v", err)
		}
		c.AddEvals(9)
		if err := c.Check(); err != nil {
			t.Fatalf("under budget: %v", err)
		}
		c.AddEvals(1)
		assertStop(t, c.Check(), StopBudget)
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		c := NewController(ControllerOptions{Context: ctx})
		if err := c.Check(); err != nil {
			t.Fatalf("before cancel: %v", err)
		}
		cancel()
		assertStop(t, c.Check(), StopCanceled)
	})
	t.Run("deadline", func(t *testing.T) {
		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		c := NewController(ControllerOptions{Deadline: now.Add(time.Second), Clock: clock})
		if err := c.Check(); err != nil {
			t.Fatalf("before deadline: %v", err)
		}
		now = now.Add(time.Second)
		assertStop(t, c.Check(), StopDeadline)
	})
	t.Run("breaker", func(t *testing.T) {
		c := NewController(ControllerOptions{})
		c.TripBreaker()
		assertStop(t, c.Check(), StopBreaker)
		c.ResetBreaker()
		if err := c.Check(); err != nil {
			t.Fatalf("after reset: %v", err)
		}
	})
	t.Run("breaker wins over budget", func(t *testing.T) {
		c := NewController(ControllerOptions{MaxEvals: 1})
		c.AddEvals(5)
		c.TripBreaker()
		assertStop(t, c.Check(), StopBreaker)
	})
}

func assertStop(t *testing.T, err error, want StopReason) {
	t.Helper()
	st, ok := AsStopped(err)
	if !ok {
		t.Fatalf("want Stopped{%v}, got %v", want, err)
	}
	if st.Reason != want {
		t.Fatalf("stop reason = %v, want %v", st.Reason, want)
	}
}

func TestAsStoppedWrapped(t *testing.T) {
	inner := &Stopped{Reason: StopDeadline}
	wrapped := errors.Join(errors.New("outer"), inner)
	st, ok := AsStopped(wrapped)
	if !ok || st.Reason != StopDeadline {
		t.Fatalf("AsStopped(wrapped) = %v, %v", st, ok)
	}
	if _, ok := AsStopped(errors.New("plain")); ok {
		t.Fatal("AsStopped matched a plain error")
	}
}

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopBreaker:   "breaker",
		StopCanceled:  "canceled",
		StopDeadline:  "deadline",
		StopBudget:    "eval-budget",
		StopReason(0): "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("StopReason(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestSafeQuarantinesNonFinite(t *testing.T) {
	vals := []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), 2}
	i := 0
	s := NewSafe(func([]float64) float64 { v := vals[i]; i++; return v }, nil)
	got := make([]float64, len(vals))
	for j := range vals {
		got[j] = s.Eval(nil)
	}
	want := []float64{1, DefaultPenalty, DefaultPenalty, DefaultPenalty, 2}
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("eval %d = %g, want %g", j, got[j], want[j])
		}
	}
	if s.NonFinite() != 3 || s.Panics() != 0 {
		t.Fatalf("counts: nonfinite=%d panics=%d", s.NonFinite(), s.Panics())
	}
}

func TestSafeRecoversPanics(t *testing.T) {
	n := 0
	s := NewSafe(func([]float64) float64 {
		n++
		if n%2 == 1 {
			panic("boom")
		}
		return 7
	}, &SafeOptions{Penalty: 1e6})
	if v := s.Eval(nil); v != 1e6 {
		t.Fatalf("panicked eval = %g, want penalty", v)
	}
	if v := s.Eval(nil); v != 7 {
		t.Fatalf("healthy eval = %g, want 7", v)
	}
	if s.Panics() != 1 {
		t.Fatalf("panics = %d", s.Panics())
	}
}

func TestSafeBreakerTripsController(t *testing.T) {
	ctrl := NewController(ControllerOptions{})
	var faults, trips int
	o := obs.Func(func(e obs.Event) {
		switch e.Kind {
		case obs.KindFault:
			faults++
		case obs.KindBreaker:
			trips++
		}
	})
	s := NewSafe(func([]float64) float64 { return math.NaN() },
		&SafeOptions{BreakerK: 3, Control: ctrl, Observer: o})
	for i := 0; i < 5; i++ {
		s.Eval(nil)
	}
	if !ctrl.BreakerTripped() {
		t.Fatal("breaker did not trip the controller")
	}
	assertStop(t, ctrl.Check(), StopBreaker)
	if faults != 5 {
		t.Fatalf("fault events = %d, want 5", faults)
	}
	if trips != 1 || s.BreakerTrips() != 1 {
		t.Fatalf("breaker events = %d, trips = %d, want 1 each", trips, s.BreakerTrips())
	}
}

func TestSafeGoodEvalResetsStreak(t *testing.T) {
	ctrl := NewController(ControllerOptions{})
	n := 0
	s := NewSafe(func([]float64) float64 {
		n++
		if n%3 == 0 {
			return 1 // every third eval is healthy: streak never reaches 3
		}
		return math.NaN()
	}, &SafeOptions{BreakerK: 3, Control: ctrl})
	for i := 0; i < 30; i++ {
		s.Eval(nil)
	}
	if ctrl.BreakerTripped() {
		t.Fatal("breaker tripped despite interleaved healthy evals")
	}
}

func TestSafeVector(t *testing.T) {
	n := 0
	sv := NewSafeVector(func([]float64) []float64 {
		n++
		switch n {
		case 1:
			return []float64{1, 2, 3}
		case 2:
			return []float64{1, math.NaN(), 3}
		default:
			panic("boom")
		}
	}, 3, nil)
	if got := sv.Eval(nil); got[1] != 2 {
		t.Fatalf("healthy vector = %v", got)
	}
	for i := 0; i < 2; i++ {
		got := sv.Eval(nil)
		if len(got) != 3 {
			t.Fatalf("penalty vector length = %d", len(got))
		}
		for _, c := range got {
			if c != DefaultPenalty {
				t.Fatalf("penalty vector = %v", got)
			}
		}
	}
	if sv.NonFinite() != 1 || sv.Panics() != 1 {
		t.Fatalf("counts: nonfinite=%d panics=%d", sv.NonFinite(), sv.Panics())
	}
}

// TestSafeBoundedVector drives the bounded form: the predicate reaches the
// objective, a non-finite vector it stopped on (the predicate holds for it
// and for the penalty vector) comes back unchecked and resets the fault
// streak, and a non-finite vector the predicate does not cover is
// quarantined as before.
func TestSafeBoundedVector(t *testing.T) {
	ctrl := NewController(ControllerOptions{})
	sv := NewSafeBoundedVector(func(x []float64, exceeds func([]float64) bool) []float64 {
		v := []float64{x[0], math.Inf(1)}
		if exceeds != nil && exceeds(v) && exceeds([]float64{99, 99}) {
			return v
		}
		return []float64{x[0], math.NaN()}
	}, 2, &SafeOptions{Penalty: 99, BreakerK: 2, Control: ctrl})
	above := func(limit float64) func([]float64) bool {
		return func(v []float64) bool { return v[0] > limit }
	}

	if got := sv.EvalBounded([]float64{5}, above(100)); got[0] != 99 || got[1] != 99 {
		t.Fatalf("uncovered non-finite vector = %v, want the penalty vector", got)
	}
	if got := sv.EvalBounded([]float64{200}, above(50)); got[0] != 200 || !math.IsInf(got[1], 1) {
		t.Fatalf("stopped vector = %v, want it unchecked", got)
	}
	if got := sv.Eval([]float64{1}); got[0] != 99 {
		t.Fatalf("plain call = %v, want the penalty vector", got)
	}
	if sv.NonFinite() != 2 || ctrl.BreakerTripped() {
		t.Fatalf("nonfinite %d, breaker tripped %v: the stop should have reset the streak", sv.NonFinite(), ctrl.BreakerTripped())
	}
	if sv.Eval([]float64{1}); !ctrl.BreakerTripped() {
		t.Fatal("two consecutive faults did not trip the breaker")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	type state struct {
		Gen  int       `json:"gen"`
		Best float64   `json:"best"`
		X    []float64 `json:"x"`
	}
	// Earlier record is superseded by the later one for the same key.
	if err := SaveCheckpoint(path, "de", 42, true, state{Gen: 3, Best: 1.5, X: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	want := state{Gen: 9, Best: 0.25, X: []float64{0.1, math.Nextafter(0.2, 1)}}
	if err := SaveCheckpoint(path, "de", 42, true, want); err != nil {
		t.Fatal(err)
	}
	// Different stage / seed / quick records must not match.
	if err := SaveCheckpoint(path, "pso", 42, true, state{Gen: 99}); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, "de", 43, true, state{Gen: 98}); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, "de", 42, false, state{Gen: 97}); err != nil {
		t.Fatal(err)
	}

	var got state
	ok, err := RestoreCheckpoint(path, "de", 42, true, &got)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if got.Gen != want.Gen || got.Best != want.Best ||
		len(got.X) != 2 || got.X[0] != want.X[0] || got.X[1] != want.X[1] {
		t.Fatalf("restored %+v, want %+v", got, want)
	}

	ok, err = RestoreCheckpoint(path, "nm", 42, true, &got)
	if err != nil || ok {
		t.Fatalf("missing stage: ok=%v err=%v", ok, err)
	}
}

func TestRestoreCheckpointMissingFile(t *testing.T) {
	var v struct{}
	ok, err := RestoreCheckpoint(filepath.Join(t.TempDir(), "absent.jsonl"), "x", 1, false, &v)
	if err != nil || ok {
		t.Fatalf("missing file: ok=%v err=%v", ok, err)
	}
}

func TestCheckpointFloatBitExact(t *testing.T) {
	// JSON must round-trip arbitrary float64 values bit-for-bit — the basis
	// of bit-identical resume.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	vals := []float64{math.Pi, 1.0 / 3.0, math.SmallestNonzeroFloat64, -math.MaxFloat64, 6.02214076e23}
	if err := SaveCheckpoint(path, "f", 1, false, vals); err != nil {
		t.Fatal(err)
	}
	var got []float64
	if ok, err := RestoreCheckpoint(path, "f", 1, false, &got); err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
}

func TestJitterSeedDeterministicAndDistinct(t *testing.T) {
	if JitterSeed(42, 0) != 42 {
		t.Fatal("attempt 0 must use the base seed")
	}
	seen := map[int64]bool{}
	for k := 0; k < 100; k++ {
		s := JitterSeed(42, k)
		if s < 0 {
			t.Fatalf("negative jittered seed %d", s)
		}
		if seen[s] {
			t.Fatalf("seed collision at attempt %d", k)
		}
		seen[s] = true
		if s != JitterSeed(42, k) {
			t.Fatal("JitterSeed is not deterministic")
		}
	}
}

func TestRestartPolicyRecoversFromBreaker(t *testing.T) {
	ctrl := NewController(ControllerOptions{})
	var restarts int
	o := obs.Func(func(e obs.Event) {
		if e.Kind == obs.KindRestart {
			restarts++
		}
	})
	calls := 0
	var seeds []int64
	p := RestartPolicy{Seed: 42, MaxRestarts: 3, Control: ctrl, Observer: o}
	attempt, best, err := p.Run(func(seed int64) (float64, error) {
		seeds = append(seeds, seed)
		calls++
		if calls <= 2 {
			ctrl.TripBreaker()
			return float64(100 - calls), &Stopped{Reason: StopBreaker}
		}
		return 1.0, nil
	})
	if err != nil {
		t.Fatalf("final attempt errored: %v", err)
	}
	if calls != 3 || restarts != 2 {
		t.Fatalf("calls=%d restarts=%d, want 3 and 2", calls, restarts)
	}
	if attempt != 2 || best != 1.0 {
		t.Fatalf("best attempt=%d best=%g, want 2 and 1.0", attempt, best)
	}
	if seeds[0] != 42 || seeds[1] == 42 || seeds[2] == seeds[1] {
		t.Fatalf("seeds not jittered: %v", seeds)
	}
	if ctrl.BreakerTripped() {
		t.Fatal("breaker left tripped after successful attempt")
	}
}

func TestRestartPolicyAbortsOnExternalStop(t *testing.T) {
	calls := 0
	p := RestartPolicy{Seed: 1, MaxRestarts: 5}
	_, best, err := p.Run(func(int64) (float64, error) {
		calls++
		return 3.5, &Stopped{Reason: StopDeadline}
	})
	if calls != 1 {
		t.Fatalf("restarted %d times on deadline stop", calls-1)
	}
	assertStop(t, err, StopDeadline)
	if best != 3.5 {
		t.Fatalf("best = %g, want best-so-far 3.5", best)
	}
}

func TestRestartPolicyExhaustsBudget(t *testing.T) {
	ctrl := NewController(ControllerOptions{})
	calls := 0
	p := RestartPolicy{Seed: 1, MaxRestarts: 2, Control: ctrl}
	_, best, err := p.Run(func(int64) (float64, error) {
		calls++
		ctrl.TripBreaker()
		return float64(calls), &Stopped{Reason: StopBreaker}
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (1 + 2 restarts)", calls)
	}
	assertStop(t, err, StopBreaker)
	if best != 1 {
		t.Fatalf("best = %g, want 1 (lowest across attempts)", best)
	}
}

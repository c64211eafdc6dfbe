package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Seed: 42}
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := b.Delay(attempt)
		d2 := b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: non-deterministic delay %v vs %v", attempt, d1, d2)
		}
		if d1 < 0 || d1 > 2*time.Second {
			t.Fatalf("attempt %d: delay %v outside [0, Max]", attempt, d1)
		}
		// Jitter scales into [0.5, 1.0): the delay never falls below half
		// the grown base and never exceeds the cap.
		grown := float64(100*time.Millisecond) * float64(int(1)<<(attempt-1))
		if grown > float64(2*time.Second) {
			grown = float64(2 * time.Second)
		}
		if float64(d1) < 0.5*grown-1 {
			t.Fatalf("attempt %d: delay %v below jitter floor of %v", attempt, d1, time.Duration(grown/2))
		}
		if d1 > prevCap && attempt > 6 {
			prevCap = d1
		}
	}
	// Different seeds decorrelate.
	b2 := b
	b2.Seed = 43
	same := 0
	for attempt := 1; attempt <= 8; attempt++ {
		if b.Delay(attempt) == b2.Delay(attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("two seeds produced identical schedules")
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	d := b.Delay(1)
	if d <= 0 || d > 30*time.Second {
		t.Fatalf("zero-value Delay(1) = %v, want within (0, 30s]", d)
	}
	if got := b.Delay(0); got <= 0 {
		t.Fatalf("Delay(0) = %v, want clamped to attempt 1", got)
	}
}

func TestRetryPolicyRetriesTransientOnly(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{
		MaxAttempts: 4,
		Backoff:     Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Seed: 1},
		Sleep:       func(_ context.Context, d time.Duration) { slept = append(slept, d) },
	}

	// Transient errors retry up to the cap.
	calls := 0
	err := p.Do(context.Background(), func(int) error {
		calls++
		return Transient(errors.New("blip"))
	})
	if calls != 4 {
		t.Fatalf("transient: %d calls, want 4", calls)
	}
	if err == nil || !IsTransient(err) {
		t.Fatalf("transient: err = %v, want wrapped transient", err)
	}
	if len(slept) != 3 {
		t.Fatalf("transient: slept %d times, want 3", len(slept))
	}

	// Permanent errors fail immediately.
	calls = 0
	err = p.Do(context.Background(), func(int) error {
		calls++
		return errors.New("permanent")
	})
	if calls != 1 || err == nil {
		t.Fatalf("permanent: %d calls err=%v, want 1 call + error", calls, err)
	}

	// Success after a transient failure stops retrying.
	calls = 0
	err = p.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt < 2 {
			return Transient(errors.New("blip"))
		}
		return nil
	})
	if calls != 2 || err != nil {
		t.Fatalf("recover: %d calls err=%v, want 2 calls + nil", calls, err)
	}
}

func TestRetryPolicyNeverRetriesStops(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 5,
		Sleep:       func(context.Context, time.Duration) {},
	}
	calls := 0
	err := p.Do(context.Background(), func(int) error {
		calls++
		return Transient(&Stopped{Reason: StopDeadline}) // a budget stop, even marked transient
	})
	if calls != 1 {
		t.Fatalf("stopped error retried: %d calls, want 1", calls)
	}
	if _, ok := AsStopped(err); !ok {
		t.Fatalf("err = %v, want Stopped", err)
	}
}

func TestRetryPolicyHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{
		MaxAttempts: 100,
		Sleep:       func(context.Context, time.Duration) { cancel() },
	}
	calls := 0
	err := p.Do(ctx, func(int) error {
		calls++
		return Transient(errors.New("blip"))
	})
	if calls != 1 {
		t.Fatalf("%d calls, want 1 (context canceled during backoff)", calls)
	}
	if err == nil {
		t.Fatal("want last attempt error after cancellation")
	}
}

func TestRetryPolicyZeroValueSingleAttempt(t *testing.T) {
	var p RetryPolicy
	calls := 0
	err := p.Do(nil, func(int) error { calls++; return Transient(errors.New("x")) })
	if calls != 1 || err == nil {
		t.Fatalf("zero policy: %d calls err=%v, want exactly 1 attempt", calls, err)
	}
}

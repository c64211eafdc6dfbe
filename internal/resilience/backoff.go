package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Backoff computes retry delays: exponential growth from Base capped at Max,
// scaled by a deterministic jitter derived from (Seed, attempt) with the
// same splitmix mix JitterSeed uses. Determinism matters here for the same
// reason it does everywhere else in this repository: a retry schedule that
// can be replayed exactly is one the chaos tests can assert on.
type Backoff struct {
	// Base is the first delay (attempt 1). Zero defaults to 100ms.
	Base time.Duration
	// Max caps the grown delay before jitter. Zero defaults to 30s.
	Max time.Duration
	// Factor is the per-attempt growth multiplier. Values below 1 default
	// to 2.
	Factor float64
	// Seed drives the deterministic jitter stream; the same (Seed, attempt)
	// always yields the same delay.
	Seed int64
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 100 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 30 * time.Second
	}
	return b.Max
}

func (b Backoff) factor() float64 {
	if b.Factor < 1 {
		return 2
	}
	return b.Factor
}

// Delay returns the wait before retry `attempt` (1-based: Delay(1) follows
// the first failure). The grown delay is scaled into [0.5, 1.0) by the
// jitter so concurrent retriers with different seeds decorrelate while each
// individual schedule stays replayable. Attempts below 1 are treated as 1.
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(b.base())
	f := b.factor()
	max := float64(b.max())
	for i := 1; i < attempt; i++ {
		d *= f
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	// JitterSeed(seed, k) is a full-period splitmix mix; the top bits give a
	// uniform fraction in [0, 1), mapped to a [0.5, 1.0) scale.
	u := uint64(JitterSeed(b.Seed, attempt))
	frac := float64(u%(1<<20)) / float64(1<<20)
	return time.Duration(d * (0.5 + 0.5*frac))
}

// transientError marks an error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string { return "transient: " + t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps err so IsTransient reports it retryable. A nil err returns
// nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// retryable with Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// RetryPolicy retries an operation on transient failure with Backoff delays.
// The zero value performs a single attempt with no retries.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts (minimum 1; zero means 1).
	MaxAttempts int
	// Backoff schedules the inter-attempt delays.
	Backoff Backoff
	// Sleep overrides the inter-attempt wait (tests). Nil uses a
	// context-aware timer sleep.
	Sleep func(ctx context.Context, d time.Duration)
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// retryable reports whether err is worth another attempt: it must be
// marked with Transient, and a *Stopped error is never retried, even when
// so marked: stops are the caller's budget speaking, not the operation
// failing.
func retryable(err error) bool {
	_, stopped := AsStopped(err)
	return !stopped && IsTransient(err)
}

func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(ctx, d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Do runs f until it succeeds, exhausts the attempt budget, fails
// permanently, or ctx is canceled. f receives the 1-based attempt ordinal.
// The returned error is the last attempt's, annotated with the attempt
// count when retries were consumed.
func (p RetryPolicy) Do(ctx context.Context, f func(attempt int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	max := p.attempts()
	for attempt := 1; ; attempt++ {
		err = f(attempt)
		if err == nil {
			return nil
		}
		if attempt >= max || !retryable(err) {
			if attempt > 1 {
				return fmt.Errorf("after %d attempts: %w", attempt, err)
			}
			return err
		}
		p.sleep(ctx, p.Backoff.Delay(attempt))
		if ctx.Err() != nil {
			return fmt.Errorf("after %d attempts: %w", attempt, err)
		}
	}
}

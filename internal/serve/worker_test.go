package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// fleetHarness is a queue+store+fleet over a fake runner.
type fleetHarness struct {
	q     *Queue
	store *Store
	fleet *Fleet
}

func newFleetHarness(t *testing.T, runner Runner, opts FleetOptions) *fleetHarness {
	t.Helper()
	dir := t.TempDir()
	q, err := OpenQueue(filepath.Join(dir, "queue"), QueueOptions{NoSync: true})
	if err != nil {
		t.Fatalf("OpenQueue: %v", err)
	}
	store, err := NewStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	f := NewFleet(q, store, runner, opts)
	f.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		f.Stop(ctx)
		q.Close()
	})
	return &fleetHarness{q: q, store: store, fleet: f}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, q *Queue, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := q.Get(id)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func tinyRetry(attempts int) resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: attempts,
		Backoff:     resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}
}

func TestFleetRunsJobToSuccess(t *testing.T) {
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		return json.RawMessage(`{"gamma":-0.123}`), nil
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 2})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", done.State, done.Error)
	}
	if string(done.Result) != `{"gamma":-0.123}` {
		t.Fatalf("journaled result = %q", done.Result)
	}
}

func TestFleetRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		if calls.Add(1) < 3 {
			return nil, resilience.Transient(errors.New("solver hiccup"))
		}
		return json.RawMessage(`{}`), nil
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Retry: tinyRetry(5)})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded after retries", done.State, done.Error)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("runner ran %d times, want 3 (2 transient failures + 1 success)", got)
	}
}

func TestFleetPermanentErrorFailsWithoutRetry(t *testing.T) {
	var calls atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		calls.Add(1)
		return nil, errors.New("unknown model class")
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Retry: tinyRetry(5)})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateFailed {
		t.Fatalf("state = %s, want failed", done.State)
	}
	if !strings.Contains(done.Error, "unknown model class") {
		t.Fatalf("error = %q, want the runner's message", done.Error)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("permanent error ran %d times, want 1 (no retry)", got)
	}
}

func TestFleetStoppedErrorNeverRetried(t *testing.T) {
	var calls atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		calls.Add(1)
		return nil, &resilience.Stopped{Reason: resilience.StopBudget}
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Retry: tinyRetry(5)})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateFailed {
		t.Fatalf("state = %s, want failed", done.State)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("budget stop ran %d times, want 1: stops are verdicts, not faults", got)
	}
}

func TestFleetPanicQuarantinesToDeadLetter(t *testing.T) {
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		// Leave a forensic artifact so quarantine has something to move.
		os.WriteFile(filepath.Join(dir, "partial.txt"), []byte("x"), 0o644)
		panic("NaN objective escaped the solver")
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Retry: tinyRetry(5), MaxPanics: 1})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateQuarantined {
		t.Fatalf("state = %s (%s), want quarantined", done.State, done.Error)
	}
	if !strings.Contains(done.Error, "panic") {
		t.Fatalf("error = %q, want the panic recorded", done.Error)
	}
	// The artifacts moved to the dead-letter area with the reason alongside.
	dl := filepath.Join(h.store.DeadLetterDir(), j.ID)
	if _, err := os.Stat(filepath.Join(dl, "partial.txt")); err != nil {
		t.Fatalf("dead-letter artifacts missing: %v", err)
	}
	reason, err := os.ReadFile(filepath.Join(dl, "reason.txt"))
	if err != nil || !strings.Contains(string(reason), "panic") {
		t.Fatalf("reason.txt = %q err=%v", reason, err)
	}
}

func TestFleetPanicBelowCapRetries(t *testing.T) {
	var calls atomic.Int32
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		if calls.Add(1) == 1 {
			panic("one-off fault")
		}
		return json.RawMessage(`{}`), nil
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Retry: tinyRetry(3), MaxPanics: 2})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded: one panic under MaxPanics=2 is transient", done.State, done.Error)
	}
}

func TestFleetStopRequeuesInFlightJob(t *testing.T) {
	started := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		close(started)
		<-ctx.Done() // cooperative: run until told to stop
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	q, err := OpenQueue(filepath.Join(dir, "queue"), QueueOptions{NoSync: true})
	if err != nil {
		t.Fatalf("OpenQueue: %v", err)
	}
	defer q.Close()
	store, _ := NewStore(filepath.Join(dir, "artifacts"))
	fleet := NewFleet(q, store, runner, FleetOptions{Workers: 1})
	fleet.Start()
	j := mustSubmit(t, q, quickSpec("a"))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fleet.Stop(ctx)

	got, err := q.Get(j.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.State != StateQueued || !got.Resumed {
		t.Fatalf("after drain: state=%s resumed=%v, want queued+resumed for the next start", got.State, got.Resumed)
	}
}

func TestFleetClientCancelWinsTheRace(t *testing.T) {
	started := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1})
	j := mustSubmit(t, h.q, quickSpec("a"))
	<-started
	if _, err := h.q.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	h.fleet.CancelJob(j.ID)
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateCanceled {
		t.Fatalf("state = %s, want canceled (first terminal wins)", done.State)
	}
	// Give the worker a beat to finish its failure path, then confirm the
	// canceled verdict stuck.
	time.Sleep(50 * time.Millisecond)
	if got, _ := h.q.Get(j.ID); got.State != StateCanceled {
		t.Fatalf("worker overwrote the cancel with %s", got.State)
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// eventSink records every observed event (fleet workers emit concurrently).
type eventSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *eventSink) Observe(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) snapshot() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

// waitForEvent polls until pred matches one recorded event.
func (s *eventSink) waitForEvent(t *testing.T, what string, pred func(obs.Event) bool) obs.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, e := range s.snapshot() {
			if pred(e) {
				return e
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no %s event arrived; have %d events", what, len(s.snapshot()))
	return obs.Event{}
}

func TestSubmitAssignsDurableTrace(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(filepath.Join(dir, "queue"), QueueOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j := mustSubmit(t, q, quickSpec("a"))
	if j.Trace == 0 {
		t.Fatal("submitted job has no trace ID")
	}
	if j.QueuedMS == 0 {
		t.Fatal("submitted job has no QueuedMS")
	}
	q.Close()

	// The trace identity is in the WAL: a fresh process sees the same ID.
	q2, err := OpenQueue(filepath.Join(dir, "queue"), QueueOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	got, err := q2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != j.Trace {
		t.Fatalf("trace after reopen = %d, want %d", got.Trace, j.Trace)
	}
}

func TestJobTraceSpansOneAttempt(t *testing.T) {
	sink := &eventSink{}
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		// The runner's own solver span must nest under the attempt span.
		span, end := obs.StartSpan(o, "solver.fake")
		span.Observe(obs.Event{Kind: obs.KindGeneration, Gen: 1, Best: -1})
		end(3)
		return json.RawMessage(`{}`), nil
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Observer: sink})
	j := mustSubmit(t, h.q, quickSpec("a"))
	waitTerminal(t, h.q, j.ID)

	done := sink.waitForEvent(t, "job.done", func(e obs.Event) bool {
		return e.Kind == obs.KindSample && e.Scope == "job.done.succeeded"
	})
	if uint64(done.Trace) != j.Trace || done.Span != jobRootSpan {
		t.Errorf("done sample identity = (%d,%d), want (%d,%d)", done.Trace, done.Span, j.Trace, jobRootSpan)
	}

	const base = uint64(1) << jobClaimShift
	var wait, attemptBegin, attemptEnd, solverEnd, rootEnd *obs.Event
	for _, e := range sink.snapshot() {
		if uint64(e.Trace) != j.Trace {
			continue
		}
		e := e
		switch {
		case e.Kind == obs.KindSpanEnd && e.Scope == scopeJobWait:
			wait = &e
		case e.Kind == obs.KindSpanBegin && e.Scope == scopeJobAttempt:
			attemptBegin = &e
		case e.Kind == obs.KindSpanEnd && e.Scope == scopeJobAttempt:
			attemptEnd = &e
		case e.Kind == obs.KindSpanEnd && e.Scope == "solver.fake":
			solverEnd = &e
		case e.Kind == obs.KindSpanEnd && e.Scope == jobScope(j):
			rootEnd = &e
		}
	}
	if wait == nil || attemptBegin == nil || attemptEnd == nil || solverEnd == nil || rootEnd == nil {
		t.Fatalf("missing spans: wait=%v attempt=%v/%v solver=%v root=%v",
			wait != nil, attemptBegin != nil, attemptEnd != nil, solverEnd != nil, rootEnd != nil)
	}
	if uint64(wait.Span) != base+1 || wait.Parent != jobRootSpan {
		t.Errorf("wait span = (%d,%d), want (%d,%d)", wait.Span, wait.Parent, base+1, jobRootSpan)
	}
	attBase := base | uint64(1)<<jobRetryShift
	if uint64(attemptBegin.Span) != attBase+1 || attemptBegin.Parent != jobRootSpan {
		t.Errorf("attempt span = (%d,%d), want (%d,%d)", attemptBegin.Span, attemptBegin.Parent, attBase+1, jobRootSpan)
	}
	if solverEnd.Parent != attemptBegin.Span {
		t.Errorf("solver span parent = %d, want the attempt span %d", solverEnd.Parent, attemptBegin.Span)
	}
	if rootEnd.Span != jobRootSpan || rootEnd.Parent != 0 {
		t.Errorf("root end identity = (%d,%d), want (%d,0)", rootEnd.Span, rootEnd.Parent, jobRootSpan)
	}
	if rootEnd.Value < 0 {
		t.Errorf("root end wall = %g, want >= 0", rootEnd.Value)
	}
}

// TestTracedFleetObserverKeepsJobTraces hands the fleet a Traced observer
// with a trace of its own: every job's events must still reach the sink
// under the job's persisted trace ID, with the root span's identity.
func TestTracedFleetObserverKeepsJobTraces(t *testing.T) {
	sink := &eventSink{}
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		_, end := obs.StartSpan(o, "solver.fake")
		end(1)
		return json.RawMessage(`{}`), nil
	})
	const outer = obs.TraceID(7)
	h := newFleetHarness(t, runner, FleetOptions{Workers: 2, Observer: obs.NewTraced(sink, obs.NewTracerID(outer))})
	jobs := []*Job{mustSubmit(t, h.q, quickSpec("a")), mustSubmit(t, h.q, quickSpec("b"))}
	for _, j := range jobs {
		waitTerminal(t, h.q, j.ID)
	}
	for _, j := range jobs {
		done := sink.waitForEvent(t, "job.done for "+j.ID, func(e obs.Event) bool {
			return e.Kind == obs.KindSample && e.Scope == "job.done.succeeded" && uint64(e.Trace) == j.Trace
		})
		if done.Span != jobRootSpan || done.Parent != 0 {
			t.Errorf("job %s: done sample span %d parent %d, want %d/0", j.ID, done.Span, done.Parent, jobRootSpan)
		}
		var solver bool
		for _, e := range sink.snapshot() {
			solver = solver || (e.Scope == "solver.fake" && uint64(e.Trace) == j.Trace)
		}
		if !solver {
			t.Errorf("job %s: its solver span did not keep the job's trace", j.ID)
		}
	}
	for _, e := range sink.snapshot() {
		if e.Trace == outer {
			t.Errorf("event %s %v was restamped with the fleet observer's trace", e.Scope, e.Kind)
		}
	}
}

func TestJobTraceRetriesAreSiblingSpans(t *testing.T) {
	sink := &eventSink{}
	var calls int
	var mu sync.Mutex
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, resilience.Transient(errors.New("flaky first attempt"))
		}
		return json.RawMessage(`{}`), nil
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Observer: sink, Retry: tinyRetry(2)})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", done.State, done.Error)
	}
	sink.waitForEvent(t, "job.done", func(e obs.Event) bool {
		return e.Kind == obs.KindSample && e.Scope == "job.done.succeeded"
	})

	var attempts []uint64
	backoffs := 0
	for _, e := range sink.snapshot() {
		if uint64(e.Trace) != j.Trace {
			continue
		}
		if e.Kind == obs.KindSpanEnd && e.Scope == scopeJobAttempt {
			attempts = append(attempts, uint64(e.Span))
		}
		if e.Kind == obs.KindSample && e.Scope == scopeJobBackoff {
			backoffs++
			if e.Span != jobRootSpan {
				t.Errorf("backoff sample span = %d, want root %d", e.Span, jobRootSpan)
			}
			if e.Value <= 0 {
				t.Errorf("backoff sample = %g ms, want > 0", e.Value)
			}
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("attempt spans = %d, want 2 sibling spans", len(attempts))
	}
	if attempts[0] == attempts[1] {
		t.Fatalf("retry reused span %d; retries must be distinct sibling spans", attempts[0])
	}
	base := uint64(1) << jobClaimShift
	if want := base | 1<<jobRetryShift | 1; attempts[0] != want {
		t.Errorf("first attempt span = %d, want %d", attempts[0], want)
	}
	if want := base | 2<<jobRetryShift | 1; attempts[1] != want {
		t.Errorf("second attempt span = %d, want %d", attempts[1], want)
	}
	if backoffs != 1 {
		t.Errorf("backoff samples = %d, want 1", backoffs)
	}
}

package obs

import (
	"sync/atomic"
	"time"
)

// Hub is the standard Observer behind the -journal/-metrics CLI flags: it
// folds every event into a Registry and, when a Journal is attached,
// appends the structured record. It is safe for concurrent emitters.
//
// Metric naming convention (scope is the emitting loop or phase):
//
//	<scope>.gen     gauge    last generation ordinal
//	<scope>.best    gauge    best objective so far / final
//	<scope>.evals   counter  evaluations accumulated at span/done events
//	<scope>.runs    counter  completed instrumented runs
//	<scope>.count   counter  completed spans
//	<scope>.ms      hist     span / run durations, milliseconds
type Hub struct {
	reg   *Registry
	j     *Journal
	start time.Time
}

// NewHub wires a registry (nil allocates a fresh one) and an optional
// journal into an observer.
func NewHub(reg *Registry, j *Journal) *Hub {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Hub{reg: reg, j: j, start: time.Now()}
}

// Registry exposes the hub's metric store.
func (h *Hub) Registry() *Registry { return h.reg }

// Observe implements Observer.
func (h *Hub) Observe(e Event) {
	switch e.Kind {
	case KindGeneration:
		h.reg.Gauge(e.Scope + ".gen").Set(float64(e.Gen))
		h.reg.Gauge(e.Scope + ".best").Set(e.Best)
	case KindSpanEnd:
		h.reg.Counter(e.Scope + ".count").Inc()
		h.reg.Histogram(e.Scope + ".ms").Observe(e.Value)
		if e.Evals > 0 {
			h.reg.Counter(e.Scope + ".evals").Add(e.Evals)
		}
	case KindDone:
		h.reg.Counter(e.Scope + ".runs").Inc()
		h.reg.Counter(e.Scope + ".evals").Add(e.Evals)
		h.reg.Gauge(e.Scope + ".best").Set(e.Best)
		h.reg.Histogram(e.Scope + ".ms").Observe(e.Value)
	case KindSample:
		h.reg.Histogram(e.Scope).Observe(e.Value)
	case KindFault:
		h.reg.Counter(e.Scope + ".faults").Inc()
	case KindBreaker:
		h.reg.Counter(e.Scope + ".breaker_trips").Inc()
	case KindRestart:
		h.reg.Counter(e.Scope + ".restarts").Inc()
	}
	if h.j != nil && e.Kind != 0 {
		h.j.Append(Record{
			TMs:    float64(time.Since(h.start)) / float64(time.Millisecond),
			Event:  e.Kind.String(),
			Scope:  e.Scope,
			Gen:    e.Gen,
			Evals:  e.Evals,
			Best:   e.Best,
			WallMs: e.Value,
			Trace:  uint64(e.Trace),
			Span:   uint64(e.Span),
			Parent: uint64(e.Parent),
			Worker: e.Worker,
		})
	}
}

// Tally forwards every event to an inner observer (which may be nil) while
// accumulating the evaluation totals reported by KindDone events (span-end
// evals are excluded: spans usually enclose instrumented runs and would
// double-count). The experiment suite uses deltas of this total for its
// per-experiment eval-budget accounting.
type Tally struct {
	inner Observer
	evals atomic.Int64
}

// NewTally wraps inner (nil is allowed: the tally then only counts).
func NewTally(inner Observer) *Tally {
	return &Tally{inner: inner}
}

// Observe implements Observer.
func (t *Tally) Observe(e Event) {
	if e.Kind == KindDone {
		t.evals.Add(e.Evals)
	}
	if t.inner != nil {
		t.inner.Observe(e)
	}
}

// Evals returns the evaluations accumulated so far.
func (t *Tally) Evals() int64 { return t.evals.Load() }

// Package obs is the observability layer of the repository: lightweight
// counters, gauges and histograms in a goroutine-safe Registry, a
// structured JSONL run Journal, and a span/event Observer protocol that the
// optimization, extraction, measurement and experiment pipelines emit into.
//
// The design constraint is that instrumentation must be safe to leave in
// the hot loops permanently: Event is a flat value type, observers are
// nil-able (nil means disabled, checked with a single branch), and the
// provided no-op observer performs zero allocations per event — proven by
// the benchmarks in this package and internal/optim.
package obs

import "time"

// EventKind classifies an Event.
type EventKind uint8

// Event kinds emitted by the instrumented pipelines.
const (
	// KindGeneration is a per-generation (or per-iteration) convergence
	// record from an optimizer loop: Gen, Evals, Best and the wall time
	// since the loop started (Value, milliseconds).
	KindGeneration EventKind = iota + 1
	// KindSpanBegin marks the start of a named phase (Scope).
	KindSpanBegin
	// KindSpanEnd closes a phase: Value carries the elapsed milliseconds
	// and Evals the objective/measurement evaluations attributed to it.
	KindSpanEnd
	// KindDone closes an instrumented run: Evals is the total evaluation
	// count, Best the final objective, Value the wall milliseconds.
	KindDone
	// KindSample is a generic scalar observation (Value) under Scope.
	KindSample
	// KindFault is one quarantined objective evaluation (a recovered panic
	// or a non-finite return): Value carries the substituted penalty.
	KindFault
	// KindBreaker marks a circuit-breaker trip after too many consecutive
	// faults: Value carries the consecutive-fault count at the trip.
	KindBreaker
	// KindRestart marks one jittered multi-start restart attempt: Gen is
	// the attempt ordinal, Best the best objective across attempts so far.
	KindRestart
)

// String names the kind as it appears in journal records.
func (k EventKind) String() string {
	switch k {
	case KindGeneration:
		return "generation"
	case KindSpanBegin:
		return "span-begin"
	case KindSpanEnd:
		return "span-end"
	case KindDone:
		return "done"
	case KindSample:
		return "sample"
	case KindFault:
		return "fault"
	case KindBreaker:
		return "breaker"
	case KindRestart:
		return "restart"
	}
	return "unknown"
}

// Event is a single observation from an instrumented loop. It is a flat
// value type on purpose: emitting one through a nil or no-op Observer must
// not allocate.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Scope names the instrumented loop or phase, e.g. "optim.de" or
	// "extract.step1.coldfet".
	Scope string
	// Gen is the generation / iteration ordinal (KindGeneration).
	Gen int
	// Evals is the cumulative evaluation count at emission time.
	Evals int64
	// Best is the best (lowest) objective value so far.
	Best float64
	// Value is the kind-specific payload: wall milliseconds for
	// generation/span/done events, the sample for KindSample.
	Value float64
	// Trace identifies the run this event belongs to (zero when the
	// emitting pipeline is untraced).
	Trace TraceID
	// Span is the span the event describes: span-begin/end pairs share one,
	// a generation record carries its generation's span, a done record its
	// run's. Zero when untraced.
	Span SpanID
	// Parent is the span that causally encloses Span (zero for a root span
	// or an untraced event).
	Parent SpanID
	// Worker is the 1-based pool-worker ordinal for worker-attributed spans
	// (zero for driver-side events).
	Worker int
}

// Observer receives events from instrumented loops. Implementations must be
// safe for concurrent use; the pipelines may emit from parallel workers.
type Observer interface {
	Observe(Event)
}

type nopObserver struct{}

func (nopObserver) Observe(Event) {}

// Nop is an Observer that discards every event without allocating.
var Nop Observer = nopObserver{}

// OrNop returns o, or Nop when o is nil, so callers can emit
// unconditionally.
func OrNop(o Observer) Observer {
	if o == nil {
		return Nop
	}
	return o
}

// Func adapts a plain function to the Observer interface.
type Func func(Event)

// Observe implements Observer.
func (f Func) Observe(e Event) { f(e) }

type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi fans events out to every non-nil observer. Nil entries are dropped;
// zero or one survivor collapses to the survivor (or nil).
func Multi(os ...Observer) Observer {
	kept := make(multi, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// StartSpan emits KindSpanBegin under scope and returns the observer the
// phase's work should emit into plus the closer; calling the closer emits
// KindSpanEnd with the elapsed milliseconds and the evaluation count the
// caller attributes to the phase.
//
// For a *Traced observer the span is a real child span: begin and end carry
// its identity, and the returned observer parents everything emitted during
// the phase under it. For any other observer the begin/end records are flat
// (exactly the pre-trace behavior) and the inner observer is o itself. A nil
// observer costs one branch and no allocation.
func StartSpan(o Observer, scope string) (Observer, func(evals int64)) {
	if o == nil {
		return nil, endNothing
	}
	inner := o
	if tr, ok := o.(*Traced); ok {
		inner = tr.NewChild()
	}
	inner.Observe(Event{Kind: KindSpanBegin, Scope: scope})
	start := time.Now()
	return inner, func(evals int64) {
		inner.Observe(Event{
			Kind:  KindSpanEnd,
			Scope: scope,
			Evals: evals,
			Value: float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
}

func endNothing(int64) {}

package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// TraceID identifies one run of an instrumented process. All events emitted
// through the same Tracer share it, so journals from many runs can be merged
// and still pulled apart.
type TraceID uint64

// SpanID identifies one span (a solver run, a generation, one worker's share
// of a batch) inside a trace. Zero means "no span": events from untraced
// observers keep zero IDs and the journal omits the fields entirely.
type SpanID uint64

// Tracer allocates span IDs for one trace. Allocation is a single atomic
// increment — no locks, no allocation — so it is safe to call from the
// EvalPool's worker goroutines in the middle of a batch.
type Tracer struct {
	id       TraceID
	next     atomic.Uint64
	outliers *OutlierDetector
}

// NewTracer returns a tracer with a run-unique TraceID derived from the wall
// clock at nanosecond resolution (unique across the runs of one machine,
// which is the merge domain journals care about).
func NewTracer() *Tracer {
	return NewTracerID(TraceID(time.Now().UnixNano()))
}

// NewTracerID returns a tracer with an explicit TraceID (tests, replays).
func NewTracerID(id TraceID) *Tracer {
	return &Tracer{id: id}
}

// NewTracerAt returns a tracer with an explicit TraceID whose span counter
// starts at base: the first NewSpan yields base+1. The serve layer uses this
// to resume a durable trace in a fresh process without colliding with span
// IDs the previous process already allocated — each attempt gets a disjoint
// base derived from journaled counters, so stitched journals never alias.
func NewTracerAt(id TraceID, base uint64) *Tracer {
	t := &Tracer{id: id}
	t.next.Store(base)
	return t
}

// ID returns the trace identifier.
func (t *Tracer) ID() TraceID { return t.id }

// NewSpan allocates the next span ID. Safe for concurrent use.
func (t *Tracer) NewSpan() SpanID { return SpanID(t.next.Add(1)) }

// SetOutliers attaches a latency outlier detector consulted by the EvalPool's
// traced workers (nil disables detection).
func (t *Tracer) SetOutliers(d *OutlierDetector) { t.outliers = d }

// Outliers returns the attached outlier detector (may be nil).
func (t *Tracer) Outliers() *OutlierDetector { return t.outliers }

// Traced is an Observer that stamps causal identity onto every event before
// forwarding it to a sink: the tracer's TraceID, and span/parent IDs
// according to two rules that keep emitters trivial —
//
//   - an event with no Span is a membership event (generation progress,
//     samples, faults, done): it is attributed to this Traced's own span,
//     with this span's parent;
//   - an event that carries its own Span but no Parent is a child span
//     record: it is parented under this Traced's span.
//
// An event that already carries a Trace keeps its trace, span and parent:
// it was stamped by the Traced that emitted it (a job's durable identity,
// for one), and a Traced further down the sink chain must not re-attribute
// it.
//
// Traced is itself a value-shaped wrapper (three words); NewChild allocates
// one small node per span, never per event, so the per-event path stays
// allocation-free.
type Traced struct {
	sink   Observer
	tracer *Tracer
	span   SpanID
	parent SpanID
}

// NewTraced returns the root traced observer for a run: a fresh root span
// allocated from tr, forwarding to sink. A nil sink discards events (the
// identity stamping still happens, which keeps span allocation deterministic
// whether or not a journal is attached).
func NewTraced(sink Observer, tr *Tracer) *Traced {
	return &Traced{sink: OrNop(sink), tracer: tr, span: tr.NewSpan()}
}

// AdoptSpan returns a Traced that re-opens an existing span identity: events
// emitted through it are stamped with tr's trace and the given span/parent
// instead of a freshly allocated span. This is how a restarted process keeps
// appending to a span a previous process began — the identity lives in
// durable state (the job queue's WAL), not in the tracer.
func AdoptSpan(sink Observer, tr *Tracer, span, parent SpanID) *Traced {
	return &Traced{sink: OrNop(sink), tracer: tr, span: span, parent: parent}
}

// Observe implements Observer.
func (t *Traced) Observe(e Event) {
	if e.Trace == 0 {
		e.Trace = t.tracer.id
		if e.Span == 0 {
			e.Span = t.span
			e.Parent = t.parent
		} else if e.Parent == 0 {
			e.Parent = t.span
		}
	}
	t.sink.Observe(e)
}

// NewChild allocates a child span of this one and returns the observer that
// emits into it. No record is written: spans appear in the journal through
// the events emitted into them (span-begin/end pairs, or single done /
// generation / worker records carrying their duration).
func (t *Traced) NewChild() *Traced {
	return &Traced{sink: t.sink, tracer: t.tracer, span: t.tracer.NewSpan(), parent: t.span}
}

// Span returns this observer's span identity.
func (t *Traced) Span() SpanID { return t.span }

// Tracer returns the allocator shared by the whole trace.
func (t *Traced) Tracer() *Tracer { return t.tracer }

// Sink returns the observer events are forwarded to.
func (t *Traced) Sink() Observer { return t.sink }

// WithSink returns a copy of t forwarding to sink while keeping the same
// trace/span identity. The experiment suite uses this to splice a Tally
// between the trace stamping and the hub without hiding the Traced type
// from StartSpan.
func (t *Traced) WithSink(sink Observer) *Traced {
	c := *t
	c.sink = OrNop(sink)
	return &c
}

// ProfDo runs f with pprof labels phase and solver set on the current
// goroutine, so CPU profiles captured during a run segment by pipeline stage
// and algorithm. Goroutines started inside f (the EvalPool's workers)
// inherit the labels. The ctx passed to f carries the label set for
// composition with WorkerCtx and for assertions via pprof.ForLabels.
func ProfDo(phase, solver string, f func(ctx context.Context)) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase, "solver", solver), f)
}

// workerLabels pre-renders the small worker ordinals so labeling a pool
// worker does not format strings in the batch hot path.
var workerLabels = [...]string{
	"0", "1", "2", "3", "4", "5", "6", "7",
	"8", "9", "10", "11", "12", "13", "14", "15",
	"16", "17", "18", "19", "20", "21", "22", "23",
	"24", "25", "26", "27", "28", "29", "30", "31",
}

// WorkerLabel renders a worker ordinal for pprof labels without allocating
// for the worker counts a pool actually runs.
func WorkerLabel(g int) string {
	if g >= 0 && g < len(workerLabels) {
		return workerLabels[g]
	}
	return "many"
}

// WorkerCtx derives a ctx labeled worker=g from ctx (which should carry the
// phase/solver labels from ProfDo), for pprof.SetGoroutineLabels-style
// attribution of one pool worker. The labels in ctx are preserved, so a
// profile sample inside a worker carries phase, solver and worker together.
func WorkerCtx(ctx context.Context, g int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return pprof.WithLabels(ctx, pprof.Labels("worker", WorkerLabel(g)))
}

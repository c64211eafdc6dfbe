package serve

import (
	"hash/fnv"
	"strconv"
	"time"

	"gnsslna/internal/obs"
)

// Durable job tracing. A job's causal trace must survive the two things that
// kill an in-memory tracer: process restarts and worker retries. Both are
// solved by deriving every span ID from state the queue already persists,
// so any process that observes the job emits into the same trace without
// coordination:
//
//   - the trace ID is assigned at submission (assignTrace) and stored on the
//     Job, which the WAL's submit record carries to every future process;
//   - the job's root span is always span 1 of its trace: the submit handler
//     emits its span-begin, whichever process lands the job terminal emits
//     its span-end;
//   - each claim of the job gets the span base attempt<<48 (Attempt is
//     journaled with the claim transition), and each in-process retry within
//     that claim shifts by retry<<32 — so the queue-wait span, every attempt
//     span and every solver span the runner allocates underneath live in
//     disjoint ID ranges across crashes, restarts and retries.
//
// internal/obs/replay stitches the per-process journals back into one tree
// (see replay.Merge and replay.BuildTraces).
const (
	// jobRootSpan is the reserved span ID of a job's root span.
	jobRootSpan = 1
	// jobClaimShift positions the journaled claim attempt in the span base.
	jobClaimShift = 48
	// jobRetryShift positions the in-process retry ordinal in the span base,
	// leaving 2^32 span IDs for the solver spans of one attempt.
	jobRetryShift = 32
)

// Scopes of the serve-emitted trace records. The root span's scope is
// jobScope's "job.<type>.<tenant>".
const (
	scopeJobWait    = "job.wait"
	scopeJobAttempt = "job.attempt"
	scopeJobBackoff = "job.backoff_ms"
	scopeJobDone    = "job.done." // + terminal state
)

// assignTrace derives the job's durable trace ID from its identity at
// submission. Deterministic (FNV-1a over ID and submit time) so a replayed
// WAL reconstructs the same ID, and never zero (zero means untraced).
func assignTrace(j *Job) uint64 {
	h := fnv.New64a()
	h.Write([]byte(j.ID))
	h.Write([]byte{'|'})
	h.Write([]byte(strconv.FormatInt(j.SubmittedMS, 10)))
	id := h.Sum64()
	if id == 0 {
		id = 1
	}
	return id
}

// jobScope is the root span's scope: "job.<type>.<tenant>". The tenant goes
// last so replay can split on the first two dots and keep dotted tenant
// names intact.
func jobScope(j *Job) string {
	return "job." + string(j.Spec.Type) + "." + j.Spec.tenant()
}

// emitJobSubmitted writes the root span-begin for a freshly accepted job,
// with the job's persisted trace identity.
func emitJobSubmitted(sink obs.Observer, j *Job) {
	if sink == nil || j == nil || j.Trace == 0 {
		return
	}
	sink.Observe(obs.Event{
		Kind:  obs.KindSpanBegin,
		Scope: jobScope(j),
		Trace: obs.TraceID(j.Trace),
		Span:  jobRootSpan,
	})
}

// emitJobDone closes the root span of a terminal job and records its outcome
// as a job.done.<state> sample, from whichever process landed the terminal
// transition. The span-end's wall time is the full submit→done latency, so a
// reconstruction that never saw the begin (journal rotated away) still bounds
// the root correctly.
func emitJobDone(sink obs.Observer, j *Job) {
	if sink == nil || j == nil || j.Trace == 0 || !j.State.Terminal() {
		return
	}
	wall := float64(j.DoneMS - j.SubmittedMS)
	if wall < 0 {
		wall = 0
	}
	root := obs.AdoptSpan(sink, obs.NewTracerID(obs.TraceID(j.Trace)), jobRootSpan, 0)
	root.Observe(obs.Event{Kind: obs.KindSpanEnd, Scope: jobScope(j), Value: wall})
	root.Observe(obs.Event{Kind: obs.KindSample, Scope: scopeJobDone + string(j.State), Value: wall})
}

// jobTrace emits one claim's share of a job's durable trace. A nil *jobTrace
// (no sink configured, or a pre-trace job) is a no-op on every method.
type jobTrace struct {
	sink  obs.Observer
	trace obs.TraceID
	base  uint64      // claim-attempt span base (attempt << jobClaimShift)
	root  *obs.Traced // the adopted root span, tracer based at this claim
}

// newJobTrace opens the claim's view of the job trace. job.Attempt is the
// just-journaled claim ordinal, which makes the span base crash-unique.
func newJobTrace(sink obs.Observer, job *Job) *jobTrace {
	if sink == nil || job.Trace == 0 {
		return nil
	}
	trace := obs.TraceID(job.Trace)
	base := uint64(job.Attempt) << jobClaimShift
	tr := obs.NewTracerAt(trace, base)
	return &jobTrace{
		sink:  sink,
		trace: trace,
		base:  base,
		root:  obs.AdoptSpan(sink, tr, jobRootSpan, 0),
	}
}

// waitSpan records the time the job spent queued before this claim as a
// child span of the root (span-end only; replay bounds it from its wall).
func (t *jobTrace) waitSpan(waitMS float64) {
	if t == nil {
		return
	}
	t.root.Observe(obs.Event{
		Kind:  obs.KindSpanEnd,
		Scope: scopeJobWait,
		Span:  t.root.Tracer().NewSpan(),
		Value: waitMS,
	})
}

// attempt opens the span for one retry attempt of this claim and returns the
// observer the runner should emit into (solver spans nest under it) plus the
// span closer. Each retry gets a disjoint span base, so sibling attempts —
// and their whole solver subtrees — never collide.
func (t *jobTrace) attempt(retry int) (obs.Observer, func(evals int64)) {
	if t == nil {
		return nil, func(int64) {}
	}
	base := t.base | uint64(retry)<<jobRetryShift
	tr := obs.NewTracerAt(t.trace, base)
	root := obs.AdoptSpan(t.sink, tr, jobRootSpan, 0)
	return obs.StartSpan(root, scopeJobAttempt)
}

// backoff records the deterministic delay scheduled before the next retry as
// a sample on the root span, so the reconstructed trace attributes the gap
// between sibling attempts.
func (t *jobTrace) backoff(d time.Duration) {
	if t == nil {
		return
	}
	t.root.Observe(obs.Event{
		Kind:  obs.KindSample,
		Scope: scopeJobBackoff,
		Value: float64(d) / float64(time.Millisecond),
	})
}

// fault records one panicking attempt on the root span.
func (t *jobTrace) fault(scope string) {
	if t == nil {
		return
	}
	t.root.Observe(obs.Event{Kind: obs.KindFault, Scope: scope})
}

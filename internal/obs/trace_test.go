package obs

import (
	"bytes"
	"context"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// TestTracerConcurrentSpans allocates spans from many goroutines; run under
// -race this proves the allocator is lock-free safe, and the uniqueness
// check proves no ID is handed out twice.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracerID(7)
	const workers = 8
	const perWorker = 1000
	ids := make([][]SpanID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]SpanID, perWorker)
			for i := range ids[w] {
				ids[w][i] = tr.NewSpan()
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[SpanID]bool, workers*perWorker)
	for _, chunk := range ids {
		for _, id := range chunk {
			if id == 0 {
				t.Fatal("NewSpan returned the reserved zero ID")
			}
			if seen[id] {
				t.Fatalf("span ID %d allocated twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("allocated %d unique IDs, want %d", len(seen), workers*perWorker)
	}
}

// TestTracedStamping pins the two stamping rules: events without a span are
// attributed to the Traced's own span (membership), events carrying their
// own span but no parent are parented under it (child-span records).
func TestTracedStamping(t *testing.T) {
	var got []Event
	sink := Func(func(e Event) { got = append(got, e) })
	tr := NewTracerID(42)
	root := NewTraced(sink, tr)
	child := root.NewChild()

	root.Observe(Event{Kind: KindSample, Scope: "a"}) // membership on root
	child.Observe(Event{Kind: KindDone, Scope: "b"})  // membership on child
	own := tr.NewSpan()                               // explicit child-span record
	child.Observe(Event{Kind: KindSpanEnd, Scope: "c", Span: own})
	child.Observe(Event{Kind: KindGeneration, Scope: "d", Span: own, Parent: root.Span()})

	if len(got) != 4 {
		t.Fatalf("forwarded %d events, want 4", len(got))
	}
	for i, e := range got {
		if e.Trace != 42 {
			t.Errorf("event %d trace = %d, want 42", i, e.Trace)
		}
	}
	if got[0].Span != root.Span() || got[0].Parent != 0 {
		t.Errorf("membership on root = span %d parent %d, want %d/0", got[0].Span, got[0].Parent, root.Span())
	}
	if got[1].Span != child.Span() || got[1].Parent != root.Span() {
		t.Errorf("membership on child = span %d parent %d, want %d/%d",
			got[1].Span, got[1].Parent, child.Span(), root.Span())
	}
	if got[2].Span != own || got[2].Parent != child.Span() {
		t.Errorf("child-span record = span %d parent %d, want %d/%d",
			got[2].Span, got[2].Parent, own, child.Span())
	}
	if got[3].Parent != root.Span() {
		t.Errorf("explicit parent overwritten: %d, want %d", got[3].Parent, root.Span())
	}
}

// TestTracedKeepsStampedIdentity passes events that already carry a trace
// through a second Traced: trace, span and parent must survive unchanged,
// including a root-span event whose parent is zero.
func TestTracedKeepsStampedIdentity(t *testing.T) {
	var got []Event
	outer := NewTraced(Func(func(e Event) { got = append(got, e) }), NewTracerID(7))
	inner := AdoptSpan(outer, NewTracerID(42), 1, 0)
	child := inner.NewChild()

	inner.Observe(Event{Kind: KindSample, Scope: "root"})
	child.Observe(Event{Kind: KindDone, Scope: "child"})
	outer.Observe(Event{Kind: KindSpanBegin, Scope: "explicit", Trace: 42, Span: 9})
	outer.Observe(Event{Kind: KindSample, Scope: "own"})

	want := []struct {
		trace        TraceID
		span, parent SpanID
	}{
		{42, 1, 0},
		{42, child.Span(), 1},
		{42, 9, 0},
		{7, outer.Span(), 0},
	}
	if len(got) != len(want) {
		t.Fatalf("forwarded %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if e := got[i]; e.Trace != w.trace || e.Span != w.span || e.Parent != w.parent {
			t.Errorf("%s: identity (%d,%d,%d), want (%d,%d,%d)", e.Scope, e.Trace, e.Span, e.Parent, w.trace, w.span, w.parent)
		}
	}
}

// TestStartSpanTraced checks that a span opened on a traced observer is a
// real child span: begin and end share a fresh span ID parented under the
// opener, and work emitted through the returned observer nests under it.
func TestStartSpanTraced(t *testing.T) {
	var got []Event
	root := NewTraced(Func(func(e Event) { got = append(got, e) }), NewTracerID(1))

	inner, end := StartSpan(root, "phase.x")
	inner.Observe(Event{Kind: KindSample, Scope: "probe"})
	end(17)

	if len(got) != 3 {
		t.Fatalf("forwarded %d events, want 3", len(got))
	}
	begin, probe, done := got[0], got[1], got[2]
	if begin.Kind != KindSpanBegin || done.Kind != KindSpanEnd {
		t.Fatalf("event kinds = %v/%v", begin.Kind, done.Kind)
	}
	if begin.Span == 0 || begin.Span == root.Span() {
		t.Fatalf("span-begin span = %d, want a fresh child of root %d", begin.Span, root.Span())
	}
	if begin.Span != done.Span {
		t.Errorf("begin/end spans differ: %d vs %d", begin.Span, done.Span)
	}
	if begin.Parent != root.Span() || done.Parent != root.Span() {
		t.Errorf("span parents = %d/%d, want root %d", begin.Parent, done.Parent, root.Span())
	}
	if probe.Span != begin.Span {
		t.Errorf("work inside the span attributed to %d, want %d", probe.Span, begin.Span)
	}
	if done.Evals != 17 {
		t.Errorf("span-end evals = %d, want 17", done.Evals)
	}
}

// TestStartSpanUntracedFlat pins compatibility: on a plain observer the
// begin/end records carry no span identity, exactly the pre-trace protocol.
func TestStartSpanUntracedFlat(t *testing.T) {
	var got []Event
	inner, end := StartSpan(Func(func(e Event) { got = append(got, e) }), "phase.y")
	inner.Observe(Event{Kind: KindSample})
	end(1)
	for i, e := range got {
		if e.Trace != 0 || e.Span != 0 || e.Parent != 0 {
			t.Errorf("event %d carries trace identity %d/%d/%d on an untraced observer",
				i, e.Trace, e.Span, e.Parent)
		}
	}
}

// TestTracedNopZeroAlloc is the satellite regression pin: stamping trace
// identity onto an event and discarding it must not allocate, and neither
// must a Nop observer fed an event that already carries the new trace
// fields — the properties that keep tracing permanently enabled in the hot
// loops.
func TestTracedNopZeroAlloc(t *testing.T) {
	traced := NewTraced(nil, NewTracerID(9))
	allocs := testing.AllocsPerRun(1000, func() {
		traced.Observe(Event{Kind: KindGeneration, Scope: "optim.de", Gen: 1, Evals: 10, Best: 0.5})
	})
	if allocs != 0 {
		t.Errorf("Traced->Nop observer allocates %.1f/op, want 0", allocs)
	}
	o := OrNop(nil)
	allocs = testing.AllocsPerRun(1000, func() {
		o.Observe(Event{
			Kind: KindGeneration, Scope: "optim.de", Gen: 1, Evals: 10, Best: 0.5,
			Trace: 7, Span: 3, Parent: 2, Worker: 4,
		})
	})
	if allocs != 0 {
		t.Errorf("Nop observer with trace fields allocates %.1f/op, want 0", allocs)
	}
}

// TestProfDoLabels asserts the pprof label plumbing: ProfDo's ctx carries
// phase and solver, and WorkerCtx composes worker on top without losing
// them.
func TestProfDoLabels(t *testing.T) {
	ran := false
	ProfDo("optim", "de", func(ctx context.Context) {
		ran = true
		want := map[string]string{"phase": "optim", "solver": "de"}
		for k, v := range want {
			if got, ok := pprof.Label(ctx, k); !ok || got != v {
				t.Errorf("label %s = %q (ok=%v), want %q", k, got, ok, v)
			}
		}
		wctx := WorkerCtx(ctx, 3)
		want["worker"] = "3"
		for k, v := range want {
			if got, ok := pprof.Label(wctx, k); !ok || got != v {
				t.Errorf("worker ctx label %s = %q (ok=%v), want %q", k, got, ok, v)
			}
		}
	})
	if !ran {
		t.Fatal("ProfDo did not run the body")
	}
}

func TestWorkerLabelNoAlloc(t *testing.T) {
	if got := WorkerLabel(0); got != "0" {
		t.Errorf("WorkerLabel(0) = %q", got)
	}
	if got := WorkerLabel(31); got != "31" {
		t.Errorf("WorkerLabel(31) = %q", got)
	}
	if got := WorkerLabel(99); got != "many" {
		t.Errorf("WorkerLabel(99) = %q", got)
	}
	allocs := testing.AllocsPerRun(1000, func() { _ = WorkerLabel(5) })
	if allocs != 0 {
		t.Errorf("WorkerLabel allocates %.1f/op, want 0", allocs)
	}
}

// TestOutlierDetector drives a stable latency population past warmup and
// checks that only a far-beyond-p99 sample is flagged.
func TestOutlierDetector(t *testing.T) {
	d := NewOutlierDetector()
	for i := 0; i < 200; i++ {
		if d.Observe("optim.de", 1.0) {
			t.Fatalf("uniform sample %d flagged as outlier", i)
		}
	}
	if p := d.P99("optim.de"); p <= 0 {
		t.Fatalf("p99 = %g after 200 samples", p)
	}
	if !d.Observe("optim.de", 1000) {
		t.Error("1000ms sample not flagged against a ~1ms population")
	}
	if d.Observe("optim.de", 1.5) {
		t.Error("near-median sample flagged")
	}
	// A different scope is still warming up: nothing flags.
	if d.Observe("optim.pso", 1000) {
		t.Error("cold scope flagged during warmup")
	}
	// Nil receiver is inert (untraced pools).
	var nilD *OutlierDetector
	if nilD.Observe("x", 1e9) || nilD.P99("x") != 0 {
		t.Error("nil detector not inert")
	}
}

// TestRuntimeSampler checks a sampling cycle fills the runtime gauges and
// mirrors them to the attached observer as samples.
func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	seen := map[string]bool{}
	o := Func(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Kind == KindSample {
			seen[e.Scope] = true
		}
	})
	s := StartRuntimeSampler(reg, o, time.Hour) // one initial + one final sample
	s.Stop()

	snap := reg.Snapshot()
	if g := snap.Gauges["runtime.goroutines"]; g < 1 {
		t.Errorf("runtime.goroutines = %g, want >= 1", g)
	}
	if g := snap.Gauges["runtime.heap_bytes"]; g <= 0 {
		t.Errorf("runtime.heap_bytes = %g, want > 0", g)
	}
	mu.Lock()
	defer mu.Unlock()
	if !seen["runtime.goroutines"] || !seen["runtime.heap_bytes"] {
		t.Errorf("observer samples missing: %v", seen)
	}
}

// TestJournalKeepsCallerTMs pins the satellite contract: the journal stamps
// t_ms only when the caller left it zero, so the hub's emission-time stamps
// survive and stay monotonic with the run rather than the file.
func TestJournalKeepsCallerTMs(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.Append(Record{Event: "sample", TMs: 123.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Event: "sample"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].TMs != 123.5 {
		t.Errorf("preset t_ms overwritten: %g", recs[0].TMs)
	}
	if recs[1].TMs < 0 {
		t.Errorf("stamped t_ms negative: %g", recs[1].TMs)
	}
}

// TestHubStampsTraceFields drives traced events through a hub and checks the
// journal mirror carries the causal identity.
func TestHubStampsTraceFields(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	h := NewHub(nil, j)
	root := NewTraced(h, NewTracerID(77))
	root.Observe(Event{Kind: KindDone, Scope: "optim.de", Evals: 10, Worker: 0})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
	if recs[0].Trace != 77 || recs[0].Span != uint64(root.Span()) {
		t.Errorf("journal record identity = trace %d span %d, want 77/%d",
			recs[0].Trace, recs[0].Span, root.Span())
	}
	if recs[0].TMs <= 0 {
		t.Errorf("hub-stamped t_ms = %g, want > 0", recs[0].TMs)
	}
}

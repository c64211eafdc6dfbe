package replay

import (
	"bytes"
	"strings"
	"testing"

	"gnsslna/internal/obs"
)

// serveJournals builds the two journals a SIGKILLed lnaservd and its restart
// would leave behind: job trace 7 (tenant alpha) is claimed in process 1,
// killed mid-attempt, reclaimed in process 2 where it retries once in-process
// and succeeds; job trace 9 (tenant beta) completes entirely in process 1.
// Timestamps are fixed so the analytics are exactly assertable.
func serveJournals() (*Run, *Run) {
	const (
		claim1 = uint64(1) << 48
		claim2 = uint64(2) << 48
		retry  = uint64(1) << 32
	)
	p1 := &Run{Records: []obs.Record{
		{TMs: 1, Event: obs.EpochEvent, Fields: map[string]float64{"unix_ms": 1_000_001}},
		{TMs: 1, Event: "span-begin", Scope: "job.design.alpha", Trace: 7, Span: 1},
		{TMs: 2, Event: "span-begin", Scope: "job.design.beta", Trace: 9, Span: 1},
		{TMs: 6, Event: "span-end", Scope: "job.wait", Trace: 9, Span: claim1 + 1, Parent: 1, WallMs: 3},
		{TMs: 6, Event: "span-begin", Scope: "job.attempt", Trace: 9, Span: claim1 | retry | 1, Parent: 1},
		{TMs: 10, Event: "span-end", Scope: "job.wait", Trace: 7, Span: claim1 + 1, Parent: 1, WallMs: 5},
		{TMs: 10, Event: "span-begin", Scope: "job.attempt", Trace: 7, Span: claim1 | retry | 1, Parent: 1},
		{TMs: 16, Event: "span-end", Scope: "job.attempt", Trace: 9, Span: claim1 | retry | 1, Parent: 1, WallMs: 10},
		{TMs: 17, Event: "span-end", Scope: "job.design.beta", Trace: 9, Span: 1, WallMs: 15},
		{TMs: 17, Event: "sample", Scope: "job.done.succeeded", Trace: 9, Span: 1, WallMs: 15},
		// SIGKILL: trace 7's first attempt never ends.
	}}
	p2 := &Run{Records: []obs.Record{
		{TMs: 1, Event: obs.EpochEvent, Fields: map[string]float64{"unix_ms": 1_000_101}},
		{TMs: 5, Event: "span-end", Scope: "job.wait", Trace: 7, Span: claim2 + 1, Parent: 1, WallMs: 105},
		{TMs: 6, Event: "span-begin", Scope: "job.attempt", Trace: 7, Span: claim2 | retry | 1, Parent: 1},
		{TMs: 26, Event: "span-end", Scope: "job.attempt", Trace: 7, Span: claim2 | retry | 1, Parent: 1, WallMs: 20},
		{TMs: 26, Event: "sample", Scope: "job.backoff_ms", Trace: 7, Span: 1, WallMs: 2},
		{TMs: 28, Event: "span-begin", Scope: "job.attempt", Trace: 7, Span: claim2 | 2<<32 | 1, Parent: 1},
		{TMs: 56, Event: "span-end", Scope: "job.attempt", Trace: 7, Span: claim2 | 2<<32 | 1, Parent: 1, WallMs: 28},
		{TMs: 60, Event: "span-end", Scope: "job.design.alpha", Trace: 7, Span: 1, WallMs: 160},
		{TMs: 60, Event: "sample", Scope: "job.done.succeeded", Trace: 7, Span: 1, WallMs: 160},
	}}
	return p1, p2
}

func TestEpochUnixMS(t *testing.T) {
	p1, p2 := serveJournals()
	if got := EpochUnixMS(p1); got != 1_000_000 {
		t.Errorf("p1 epoch = %g, want 1000000", got)
	}
	if got := EpochUnixMS(p2); got != 1_000_100 {
		t.Errorf("p2 epoch = %g, want 1000100", got)
	}
	if got := EpochUnixMS(&Run{}); got != 0 {
		t.Errorf("epoch of empty run = %g, want 0", got)
	}
}

func TestMergeAlignsOnEpoch(t *testing.T) {
	p1, p2 := serveJournals()
	m := Merge(p1, p2)
	if len(m.Records) != len(p1.Records)+len(p2.Records) {
		t.Fatalf("merged %d records, want %d", len(m.Records), len(p1.Records)+len(p2.Records))
	}
	// Process 2 opened 100ms after process 1: its records shift by +100.
	var gotWait2 float64
	for _, rec := range m.Records {
		if rec.Event == "span-end" && rec.Scope == "job.wait" && rec.WallMs == 105 {
			gotWait2 = rec.TMs
		}
	}
	if gotWait2 != 105 {
		t.Errorf("restart wait span at t=%g, want 105 (5 + 100ms offset)", gotWait2)
	}
	// Timestamps are ordered and Seq re-stamped to the merged order.
	for i, rec := range m.Records {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d has Seq %d", i, rec.Seq)
		}
		if i > 0 && rec.TMs < m.Records[i-1].TMs {
			t.Fatalf("record %d out of order: %g after %g", i, rec.TMs, m.Records[i-1].TMs)
		}
	}
	// The inputs keep their original clocks.
	if p2.Records[1].TMs != 5 {
		t.Errorf("Merge mutated its input: %g", p2.Records[1].TMs)
	}
}

func TestBuildTracesSplitsJobs(t *testing.T) {
	p1, p2 := serveJournals()
	trees := BuildTraces(Merge(p1, p2))
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want one per job trace", len(trees))
	}
	byID := map[uint64]*TraceTree{}
	for _, tr := range trees {
		byID[tr.TraceID] = tr
	}
	alpha, beta := byID[7], byID[9]
	if alpha == nil || beta == nil {
		t.Fatalf("trace IDs = %v", []uint64{trees[0].TraceID, trees[1].TraceID})
	}
	// Trace 7 spans both processes: root + 2 waits + 3 attempts.
	if alpha.Count != 6 {
		t.Errorf("alpha span count = %d, want 6", alpha.Count)
	}
	if len(alpha.Roots) != 1 || alpha.Roots[0].Scope != "job.design.alpha" {
		t.Fatalf("alpha roots = %+v", alpha.Roots)
	}
	attempts := 0
	for _, c := range alpha.Roots[0].Children {
		if c.Scope == "job.attempt" {
			attempts++
		}
	}
	if attempts != 3 {
		t.Errorf("alpha attempt spans = %d, want 3 (killed + retry pair)", attempts)
	}
	if beta.Count != 3 {
		t.Errorf("beta span count = %d, want 3", beta.Count)
	}
}

func TestServeSummary(t *testing.T) {
	p1, p2 := serveJournals()
	rep := ServeSummary(Merge(p1, p2))
	if rep.Jobs != 2 || rep.Done != 2 || rep.Succeeded != 2 {
		t.Fatalf("headline = %+v", rep)
	}
	if rep.Attempts != 4 || rep.Retries != 2 {
		t.Errorf("attempts/retries = %d/%d, want 4/2", rep.Attempts, rep.Retries)
	}
	if rep.BackoffMS != 2 {
		t.Errorf("backoff = %g, want 2", rep.BackoffMS)
	}
	if rep.ElapsedMS != 160 || rep.ThroughputPerSec != 12.5 {
		t.Errorf("elapsed/throughput = %g/%g, want 160/12.5", rep.ElapsedMS, rep.ThroughputPerSec)
	}
	if len(rep.Tenants) != 2 || rep.Tenants[0].Tenant != "alpha" || rep.Tenants[1].Tenant != "beta" {
		t.Fatalf("tenants = %+v", rep.Tenants)
	}
	a, b := rep.Tenants[0], rep.Tenants[1]
	if a.WaitP50 != 5 || a.WaitP95 != 105 || a.WaitP99 != 105 {
		t.Errorf("alpha waits = %g/%g/%g, want 5/105/105", a.WaitP50, a.WaitP95, a.WaitP99)
	}
	if a.P50 != 160 || a.P99 != 160 {
		t.Errorf("alpha latency = %g/%g, want 160", a.P50, a.P99)
	}
	if a.Retries != 2 || a.BackoffMS != 2 {
		t.Errorf("alpha retry stats = %+v", a)
	}
	if b.P50 != 15 || b.WaitP50 != 3 || b.Retries != 0 {
		t.Errorf("beta stats = %+v", b)
	}
}

func TestWriteServeText(t *testing.T) {
	p1, p2 := serveJournals()
	var buf bytes.Buffer
	if err := WriteServeText(&buf, ServeSummary(Merge(p1, p2))); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"serve journal: 2 jobs, 2 done (2 succeeded, 0 failed, 0 quarantined, 0 canceled)",
		"attempts: 4 (2 retries, 2.0 ms backoff)",
		"alpha", "beta",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serve text missing %q:\n%s", want, out)
		}
	}

	var empty bytes.Buffer
	if err := WriteServeText(&empty, ServeSummary(&Run{})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no job traces") {
		t.Errorf("empty report = %q", empty.String())
	}
}

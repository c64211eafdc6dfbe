package replay

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gnsslna/internal/mathx"
)

// TenantServeStats is one tenant's share of a serve journal: job outcomes,
// attempt/retry behaviour and the exact latency percentiles of its completed
// jobs. Latency is submit→done wall time (the root span's wall), wait is the
// queue time recorded before each claim.
type TenantServeStats struct {
	Tenant      string  `json:"tenant"`
	Jobs        int     `json:"jobs"`
	Done        int     `json:"done"`
	Succeeded   int     `json:"succeeded"`
	Failed      int     `json:"failed"`
	Quarantined int     `json:"quarantined"`
	Canceled    int     `json:"canceled"`
	Attempts    int     `json:"attempts"`
	Retries     int     `json:"retries"`
	BackoffMS   float64 `json:"backoff_ms"`
	WaitP50     float64 `json:"wait_p50_ms"`
	WaitP95     float64 `json:"wait_p95_ms"`
	WaitP99     float64 `json:"wait_p99_ms"`
	P50         float64 `json:"p50_ms"`
	P95         float64 `json:"p95_ms"`
	P99         float64 `json:"p99_ms"`
}

// ServeReport is the analytics view of a (possibly merged) serve journal.
type ServeReport struct {
	// Jobs counts the distinct job traces the journal carries.
	Jobs int `json:"jobs"`
	// Done counts the jobs that reached a terminal state in the journal.
	Done int `json:"done"`
	// Succeeded/Failed/Quarantined/Canceled split Done by outcome.
	Succeeded   int `json:"succeeded"`
	Failed      int `json:"failed"`
	Quarantined int `json:"quarantined"`
	Canceled    int `json:"canceled"`
	// Attempts counts worker attempt spans; Retries is the share beyond each
	// job's first, BackoffMS the total retry delay scheduled between them.
	Attempts  int     `json:"attempts"`
	Retries   int     `json:"retries"`
	BackoffMS float64 `json:"backoff_ms"`
	// ElapsedMS is the journal horizon; ThroughputPerSec is Done over it.
	ElapsedMS        float64 `json:"elapsed_ms"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Tenants is the per-tenant breakdown, sorted by tenant name.
	Tenants []TenantServeStats `json:"tenants"`
}

// serveAccum is one tenant's in-flight accumulation during the scan.
type serveAccum struct {
	stats    TenantServeStats
	attempts map[uint64]map[uint64]bool // trace -> distinct attempt span IDs
	waits    []float64
	lats     []float64
}

// ServeSummary scans a serve journal (one process's, or several processes'
// merged with Merge) and computes the job-server analytics: throughput,
// outcome and retry counts, total backoff, and per-tenant exact latency and
// queue-wait percentiles. Root spans carry the tenant in their
// "job.<type>.<tenant>" scope; records of traces whose root never appears
// (rotated away) are attributed to the pseudo-tenant "unknown".
func ServeSummary(r *Run) *ServeReport {
	rep := &ServeReport{ElapsedMS: horizonOf(r.Records)}

	// First pass: map each trace to its tenant via the root span's scope.
	tenantOf := map[uint64]string{}
	for _, rec := range r.Records {
		if rec.Span != jobRootSpanID || rec.Trace == 0 {
			continue
		}
		// Only the root's own span-begin/span-end carry the job scope; the
		// job.done.* and job.backoff_ms samples ride the root span too.
		if rec.Event != "span-begin" && rec.Event != "span-end" {
			continue
		}
		rest, ok := strings.CutPrefix(rec.Scope, "job.")
		if !ok {
			continue
		}
		if _, tenant, ok := strings.Cut(rest, "."); ok {
			tenantOf[rec.Trace] = tenant
		}
	}

	accums := map[string]*serveAccum{}
	acc := func(trace uint64) *serveAccum {
		tenant := tenantOf[trace]
		if tenant == "" {
			tenant = "unknown"
		}
		a := accums[tenant]
		if a == nil {
			a = &serveAccum{attempts: map[uint64]map[uint64]bool{}}
			a.stats.Tenant = tenant
			accums[tenant] = a
		}
		return a
	}
	jobs := map[uint64]bool{}

	for _, rec := range r.Records {
		if rec.Trace == 0 || rec.Span == 0 {
			continue
		}
		if !jobs[rec.Trace] {
			jobs[rec.Trace] = true
			acc(rec.Trace).stats.Jobs++
		}
		a := acc(rec.Trace)
		switch {
		case rec.Event == "span-end" && rec.Span == jobRootSpanID:
			a.lats = append(a.lats, rec.WallMs)
		case rec.Event == "span-end" && rec.Scope == "job.wait":
			a.waits = append(a.waits, rec.WallMs)
		case rec.Scope == "job.attempt" && (rec.Event == "span-begin" || rec.Event == "span-end"):
			// Distinct span IDs, not span-ends: an attempt cut short by
			// SIGKILL leaves only its begin behind, and it still happened.
			set := a.attempts[rec.Trace]
			if set == nil {
				set = map[uint64]bool{}
				a.attempts[rec.Trace] = set
			}
			set[rec.Span] = true
		case rec.Event == "sample" && rec.Scope == "job.backoff_ms":
			a.stats.BackoffMS += rec.WallMs
		case rec.Event == "sample" && strings.HasPrefix(rec.Scope, "job.done."):
			a.stats.Done++
			switch strings.TrimPrefix(rec.Scope, "job.done.") {
			case "succeeded":
				a.stats.Succeeded++
			case "failed":
				a.stats.Failed++
			case "quarantined":
				a.stats.Quarantined++
			case "canceled":
				a.stats.Canceled++
			}
		}
	}

	for _, a := range accums {
		for _, set := range a.attempts {
			a.stats.Attempts += len(set)
			if len(set) > 1 {
				a.stats.Retries += len(set) - 1
			}
		}
		sort.Float64s(a.waits)
		sort.Float64s(a.lats)
		a.stats.WaitP50 = mathx.RankPercentile(a.waits, 0.50)
		a.stats.WaitP95 = mathx.RankPercentile(a.waits, 0.95)
		a.stats.WaitP99 = mathx.RankPercentile(a.waits, 0.99)
		a.stats.P50 = mathx.RankPercentile(a.lats, 0.50)
		a.stats.P95 = mathx.RankPercentile(a.lats, 0.95)
		a.stats.P99 = mathx.RankPercentile(a.lats, 0.99)

		rep.Jobs += a.stats.Jobs
		rep.Done += a.stats.Done
		rep.Succeeded += a.stats.Succeeded
		rep.Failed += a.stats.Failed
		rep.Quarantined += a.stats.Quarantined
		rep.Canceled += a.stats.Canceled
		rep.Attempts += a.stats.Attempts
		rep.Retries += a.stats.Retries
		rep.BackoffMS += a.stats.BackoffMS
		rep.Tenants = append(rep.Tenants, a.stats)
	}
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant })
	if rep.ElapsedMS > 0 {
		rep.ThroughputPerSec = float64(rep.Done) / (rep.ElapsedMS / 1000)
	}
	return rep
}

// jobRootSpanID mirrors the serve layer's reserved root span ID.
const jobRootSpanID = 1

// WriteServeText renders the serve analytics as the `obsreport serve` report:
// a headline with throughput and outcome counts, then one row per tenant with
// its exact wait and end-to-end latency percentiles.
func WriteServeText(w io.Writer, rep *ServeReport) error {
	if rep.Jobs == 0 {
		_, err := fmt.Fprintln(w, "journal carries no job traces (not a serve journal, or pre-trace)")
		return err
	}
	if _, err := fmt.Fprintf(w,
		"serve journal: %d jobs, %d done (%d succeeded, %d failed, %d quarantined, %d canceled) over %.1f ms (%.2f done/s)\n",
		rep.Jobs, rep.Done, rep.Succeeded, rep.Failed, rep.Quarantined, rep.Canceled,
		rep.ElapsedMS, rep.ThroughputPerSec); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "attempts: %d (%d retries, %.1f ms backoff)\n",
		rep.Attempts, rep.Retries, rep.BackoffMS); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-20s %6s %6s %9s %8s %11s %11s %11s %9s %9s %9s\n",
		"tenant", "jobs", "done", "attempts", "retries",
		"wait_p50_ms", "wait_p95_ms", "wait_p99_ms", "p50_ms", "p95_ms", "p99_ms"); err != nil {
		return err
	}
	for _, t := range rep.Tenants {
		if _, err := fmt.Fprintf(w, "%-20s %6d %6d %9d %8d %11.1f %11.1f %11.1f %9.1f %9.1f %9.1f\n",
			t.Tenant, t.Jobs, t.Done, t.Attempts, t.Retries,
			t.WaitP50, t.WaitP95, t.WaitP99, t.P50, t.P95, t.P99); err != nil {
			return err
		}
	}
	return nil
}

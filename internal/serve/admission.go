package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// TenantPolicy is one tenant's admission contract.
type TenantPolicy struct {
	// RatePerSec refills the tenant's token bucket (jobs per second).
	// Zero or negative disables rate limiting for the tenant.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the bucket capacity (minimum 1 when rate limiting is on).
	Burst float64 `json:"burst"`
	// MaxInFlight bounds the tenant's queued+running jobs (0: unlimited).
	MaxInFlight int `json:"max_in_flight"`
	// MaxEvalsPerJob caps the evaluation budget any single job may request;
	// admission clamps the spec's MaxEvals onto it, and the clamped value
	// becomes the job's RunController budget (0: server default applies).
	MaxEvalsPerJob int64 `json:"max_evals_per_job"`
	// SLOTargetP99MS is the tenant's target p99 end-to-end job latency in
	// milliseconds. When set, the server exposes the observed p99 and the
	// burn rate observed/target as jobs.slo.* gauges on /metrics and in the
	// /healthz document (0: no latency SLO for the tenant).
	SLOTargetP99MS float64 `json:"slo_p99_ms,omitempty"`
	// SLOErrorRate is the tenant's error-rate budget — the tolerated
	// fraction of terminal jobs landing failed or quarantined. When set, the
	// observed rate and its burn rate are exposed alongside the latency SLO
	// (0: no error-rate SLO).
	SLOErrorRate float64 `json:"slo_error_rate,omitempty"`
}

// HasSLO reports whether the policy defines any service-level objective.
func (p TenantPolicy) HasSLO() bool {
	return p.SLOTargetP99MS > 0 || p.SLOErrorRate > 0
}

// OverQuota is the admission rejection: the HTTP layer maps it to
// 429 Too Many Requests with a Retry-After header.
type OverQuota struct {
	// Tenant is the rejected tenant.
	Tenant string
	// Quota names the exhausted quota ("rate" or "in-flight").
	Quota string
	// RetryAfter estimates when the tenant will be admitted again.
	RetryAfter time.Duration
}

// Error implements error.
func (o *OverQuota) Error() string {
	return fmt.Sprintf("serve: tenant %q over %s quota (retry after %s)", o.Tenant, o.Quota, o.RetryAfter)
}

// AsOverQuota unwraps err to an *OverQuota, if one is in the chain.
func AsOverQuota(err error) (*OverQuota, bool) {
	var o *OverQuota
	if errors.As(err, &o) {
		return o, true
	}
	return nil, false
}

// Admission is the per-tenant gate in front of the queue: a token bucket
// bounds each tenant's submission rate, an in-flight quota bounds its
// standing load, and the per-job evaluation cap maps tenant fairness onto
// the RunController budget every job runs under. All methods are safe for
// concurrent use.
type Admission struct {
	mu       sync.Mutex
	policies map[string]TenantPolicy
	def      TenantPolicy
	buckets  map[string]*bucket
	inflight func(tenant string) int
	now      func() time.Time
}

// bucket is a standard token bucket with a monotonic-enough clock guard:
// a backwards clock jump (skew, NTP step) freezes refill instead of
// granting a negative or unbounded token delta.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds the gate. policies maps tenant name to policy; def
// applies to tenants not in the map. inflight reports a tenant's current
// queued+running jobs (the queue's InFlight method); nil disables the
// in-flight quota.
func NewAdmission(policies map[string]TenantPolicy, def TenantPolicy, inflight func(string) int, now func() time.Time) *Admission {
	if now == nil {
		now = time.Now
	}
	cp := make(map[string]TenantPolicy, len(policies))
	for k, v := range policies {
		cp[k] = v
	}
	return &Admission{
		policies: cp,
		def:      def,
		buckets:  make(map[string]*bucket),
		inflight: inflight,
		now:      now,
	}
}

func (a *Admission) policyLocked(tenant string) TenantPolicy {
	if p, ok := a.policies[tenant]; ok {
		return p
	}
	return a.def
}

// Admit charges one job against the tenant's quotas and clamps the spec's
// budgets onto the tenant policy. On rejection it returns an *OverQuota
// carrying the retry horizon; the spec is unmodified.
func (a *Admission) Admit(spec *JobSpec) error {
	tenant := spec.tenant()
	a.mu.Lock()
	p := a.policyLocked(tenant)

	// In-flight quota first: it is cheaper to check and rejecting on it
	// must not consume a rate token.
	if p.MaxInFlight > 0 && a.inflight != nil {
		// The queue lock is never held while Admission runs (the server
		// admits before submitting), so calling out under a.mu is safe.
		if n := a.inflight(tenant); n >= p.MaxInFlight {
			a.mu.Unlock()
			return &OverQuota{Tenant: tenant, Quota: "in-flight", RetryAfter: time.Second}
		}
	}

	if p.RatePerSec > 0 {
		burst := math.Max(p.Burst, 1)
		b := a.buckets[tenant]
		now := a.now()
		if b == nil {
			b = &bucket{tokens: burst, last: now}
			a.buckets[tenant] = b
		} else {
			dt := now.Sub(b.last).Seconds()
			if dt > 0 {
				b.tokens = math.Min(burst, b.tokens+dt*p.RatePerSec)
			}
			// dt <= 0: a skewed clock stepped backwards; hold tokens and
			// re-anchor so refill resumes from the new time base.
			b.last = now
		}
		if b.tokens < 1 {
			need := (1 - b.tokens) / p.RatePerSec
			a.mu.Unlock()
			return &OverQuota{
				Tenant:     tenant,
				Quota:      "rate",
				RetryAfter: time.Duration(math.Ceil(need*1000)) * time.Millisecond,
			}
		}
		b.tokens--
	}
	a.mu.Unlock()

	// Map the tenant's evaluation budget onto the job's RunController.
	if p.MaxEvalsPerJob > 0 && (spec.MaxEvals == 0 || spec.MaxEvals > p.MaxEvalsPerJob) {
		spec.MaxEvals = p.MaxEvalsPerJob
	}
	return nil
}

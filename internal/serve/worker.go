package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// Runner executes one claimed job attempt. dir is the job's artifact
// directory; implementations persist their resilience checkpoints there so
// a crashed or canceled attempt resumes bit-identically. A transient error
// (resilience.Transient / IsTransient) is retried with backoff; any other
// error fails the job permanently; a panic counts toward quarantine.
type Runner interface {
	Run(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error)
}

// RunnerFunc adapts a function to Runner.
type RunnerFunc func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
	return f(ctx, job, dir, o)
}

// FleetOptions configures the worker fleet.
type FleetOptions struct {
	// Workers is the claim-loop goroutine count (minimum 1).
	Workers int
	// Retry is the per-job retry policy; zero value means one attempt.
	Retry resilience.RetryPolicy
	// MaxPanics quarantines a job after this many panicking attempts
	// (0 defaults to 1: one panic is poison unless configured otherwise).
	MaxPanics int
	// DefaultTimeout bounds a job attempt when the spec carries none
	// (0: 5 minutes).
	DefaultTimeout time.Duration
	// Observer receives the durable job-trace events, each stamped with
	// the job's own persisted trace identity (nil: disabled).
	Observer obs.Observer
	// Metrics receives fleet counters (nil: disabled).
	Metrics *Metrics
}

// Fleet is the worker pool draining the queue: each worker claims a job,
// opens its job span, runs it under the retry policy with its own
// RunController-backed context, and lands it in a terminal state. Workers
// hold no state a crash could lose — every transition they make is
// journaled by the queue first.
type Fleet struct {
	q      *Queue
	store  *Store
	runner Runner
	opts   FleetOptions
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	running map[string]context.CancelFunc
}

// NewFleet assembles a fleet over the queue, store and runner.
func NewFleet(q *Queue, store *Store, runner Runner, opts FleetOptions) *Fleet {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.MaxPanics < 1 {
		opts.MaxPanics = 1
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 5 * time.Minute
	}
	return &Fleet{q: q, store: store, runner: runner, opts: opts, running: make(map[string]context.CancelFunc)}
}

// Start launches the claim loops.
func (f *Fleet) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 1; i <= f.opts.Workers; i++ {
		f.wg.Add(1)
		go func(worker int) {
			defer f.wg.Done()
			for {
				job, err := f.q.Claim(ctx)
				if err != nil {
					return // fleet stopping or queue closed
				}
				f.execute(ctx, job, worker)
			}
		}(i)
	}
}

// Stop drains the fleet: claim loops stop, in-flight jobs are canceled
// cooperatively (their solvers return best-so-far and checkpoint), and each
// interrupted job is re-queued so a later start resumes it. Bounded by ctx.
func (f *Fleet) Stop(ctx context.Context) {
	if f.cancel != nil {
		f.cancel()
	}
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// CancelJob cancels a running job's attempt context (client-driven cancel).
func (f *Fleet) CancelJob(id string) {
	f.mu.Lock()
	cancel := f.running[id]
	f.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// execute runs one claimed job to a terminal state (or re-queues it on
// fleet shutdown). Every phase lands in the job's durable trace: the queue
// wait as a child span, each retry attempt as a sibling span the runner's
// solver spans nest under, the scheduled backoff between attempts as samples,
// and the root span-end when the job goes terminal.
func (f *Fleet) execute(fleetCtx context.Context, job *Job, worker int) {
	m := f.opts.Metrics
	tenant := job.Spec.tenant()
	queuedAt := job.QueuedMS
	if queuedAt == 0 {
		queuedAt = job.SubmittedMS
	}
	queueWait := float64(nowMS(f.q.opts.Now) - queuedAt)
	if queueWait < 0 {
		queueWait = 0
	}
	m.observeQueueWait(tenant, queueWait)
	m.observeQueue(f.q, f.store)

	trace := newJobTrace(f.opts.Observer, job)
	trace.waitSpan(queueWait)

	timeout := f.opts.DefaultTimeout
	if job.Spec.TimeoutMS > 0 {
		timeout = time.Duration(job.Spec.TimeoutMS) * time.Millisecond
	}
	jobCtx, cancel := context.WithTimeout(fleetCtx, timeout)
	f.mu.Lock()
	f.running[job.ID] = cancel
	f.mu.Unlock()
	defer func() {
		cancel()
		f.mu.Lock()
		delete(f.running, job.ID)
		f.mu.Unlock()
		m.observeQueue(f.q, f.store)
	}()

	dir, err := f.store.JobDir(job.ID)
	if err != nil {
		done, _ := f.q.Fail(job.ID, err.Error())
		emitJobDone(f.opts.Observer, done)
		m.inc("jobs.failed", tenant)
		return
	}

	var result json.RawMessage
	panics := 0
	retry := f.opts.Retry
	retry.Backoff.Seed = resilience.JitterSeed(job.Spec.Seed, int(job.Seq))
	// Record the exact (deterministic) backoff the policy is about to sleep,
	// then delegate to the caller's sleep (or the default timer).
	innerSleep := retry.Sleep
	retry.Sleep = func(ctx context.Context, d time.Duration) {
		trace.backoff(d)
		if innerSleep != nil {
			innerSleep(ctx, d)
			return
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
	runErr := retry.Do(jobCtx, func(attempt int) (err error) {
		span, endSpan := trace.attempt(attempt)
		defer func() {
			if r := recover(); r != nil {
				panics++
				trace.fault("serve.job." + job.ID)
				if panics >= f.opts.MaxPanics {
					err = &poisonError{msg: fmt.Sprintf("panic in attempt %d: %v", attempt, r)}
				} else {
					err = resilience.Transient(fmt.Errorf("panic in attempt %d: %v", attempt, r))
				}
			}
			endSpan(0)
		}()
		m.inc("jobs.attempts", tenant)
		if attempt > 1 {
			m.inc("jobs.retried", tenant)
		}
		result, err = f.runner.Run(jobCtx, job, dir, span)
		return err
	})

	var done *Job
	switch {
	case runErr == nil:
		if result == nil {
			result = json.RawMessage(`{}`)
		}
		done, _ = f.q.Complete(job.ID, result)
		m.inc("jobs.succeeded", tenant)
	case isPoison(runErr):
		done, _ = f.q.Quarantine(job.ID, runErr.Error())
		_ = f.store.Quarantine(job.ID, runErr.Error())
		m.inc("jobs.quarantined", tenant)
	case fleetCtx.Err() != nil:
		// Fleet shutdown (not the job's own deadline): park the job for the
		// next start; its checkpoints carry the completed stages and the open
		// root span waits for the process that finishes it.
		_ = f.q.Requeue(job.ID)
		m.inc("jobs.requeued", tenant)
		return
	default:
		if cur, err := f.q.Get(job.ID); err == nil && cur.State.Terminal() {
			// A client cancel raced us to a terminal state; the queue's
			// first-terminal-wins rule already settled it (and the cancel
			// handler closed the trace).
			return
		}
		done, _ = f.q.Fail(job.ID, runErr.Error())
		m.inc("jobs.failed", tenant)
	}
	emitJobDone(f.opts.Observer, done)
	if done != nil {
		m.observeLatency(tenant, float64(done.DoneMS-done.SubmittedMS))
	}
}

// poisonError short-circuits the retry loop (IsTransient rejects it)
// and routes the job to quarantine rather than plain failure.
type poisonError struct{ msg string }

func (p *poisonError) Error() string { return "poisoned: " + p.msg }

func isPoison(err error) bool {
	for err != nil {
		if _, ok := err.(*poisonError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

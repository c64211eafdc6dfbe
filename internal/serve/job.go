// Package serve is the design-as-a-service layer: a durable, crash-safe job
// queue with per-tenant admission control, a retrying worker fleet, a
// filesystem artifact store and an HTTP/JSON API, assembled into the
// lnaservd server. Jobs — full design runs, model extractions, Monte-Carlo
// yield sweeps — enter through a JSONL write-ahead journal, so a SIGKILL at
// any instant loses no acknowledged work: queued jobs are recovered as
// queued, running jobs are re-queued and resume from their resilience
// checkpoints bit-identically, and terminal jobs stay terminal (the dedupe
// key guarantees an acknowledged job never runs twice to completion).
//
// The shape — queue → admission → worker fleet → artifact store, observed
// through the existing export server — follows the studio-go-runner
// lineage: the queue is the unit of durability, the runner is stateless and
// restartable, and everything the operator needs to trust the fleet
// (depth, retries, quarantines, per-tenant rates) is a gnsslna_jobs_*
// metric family.
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"gnsslna/internal/device"
)

// JobType names what a job runs.
type JobType string

// The job types the standard runner understands.
const (
	// TypeDesign runs the complete paper design flow (extraction +
	// goal-attainment design) and returns the design report.
	TypeDesign JobType = "design"
	// TypeExtract runs the synthetic measurement campaign and three-step
	// extraction of the named model class.
	TypeExtract JobType = "extract"
	// TypeSweep runs a Monte-Carlo component-tolerance yield sweep over the
	// designed amplifier.
	TypeSweep JobType = "sweep"
)

// JobState is a job's lifecycle position. Terminal states never transition
// again.
type JobState string

// Job lifecycle states.
const (
	// StateQueued: accepted, journaled, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: claimed by a worker.
	StateRunning JobState = "running"
	// StateSucceeded: terminal; the result artifact is readable.
	StateSucceeded JobState = "succeeded"
	// StateFailed: terminal; the retry budget was exhausted or the failure
	// was permanent.
	StateFailed JobState = "failed"
	// StateQuarantined: terminal; the job poisoned its workers (panics,
	// persistent faults) and was moved to the dead-letter directory with
	// its journals.
	StateQuarantined JobState = "quarantined"
	// StateCanceled: terminal; canceled by the client before completion.
	StateCanceled JobState = "canceled"
	// StateShed: terminal; evicted from a full queue to admit
	// higher-priority work.
	StateShed JobState = "shed"
)

// Terminal reports whether s is a final state.
func (s JobState) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateQuarantined, StateCanceled, StateShed:
		return true
	}
	return false
}

// JobSpec is the client-provided description of one job.
type JobSpec struct {
	// Type selects the workload (design, extract, sweep).
	Type JobType `json:"type"`
	// Tenant names the submitting tenant for admission control and
	// metrics. Empty maps to "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue (higher runs first; load shedding evicts
	// the lowest first). Zero is the normal priority.
	Priority int `json:"priority,omitempty"`
	// Seed drives the run deterministically (0 means 1, matching the
	// facade).
	Seed int64 `json:"seed,omitempty"`
	// Quick trims optimization budgets.
	Quick bool `json:"quick,omitempty"`
	// MaxEvals bounds the job's objective evaluations; admission clamps it
	// to the tenant's per-job budget (0: the tenant budget applies as-is).
	MaxEvals int64 `json:"max_evals,omitempty"`
	// TimeoutMS bounds the job's wall-clock run time in milliseconds
	// (0: the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Model names the DC model class for extract jobs (default "Angelov").
	Model string `json:"model,omitempty"`
	// Trials is the Monte-Carlo trial count for sweep jobs (default 200,
	// at most maxTrials).
	Trials int `json:"trials,omitempty"`
	// DedupeKey, when set, makes submission idempotent: a resubmission with
	// the same key returns the existing job instead of enqueuing a second
	// run, and recovery never re-runs a key that already reached a terminal
	// state.
	DedupeKey string `json:"dedupe_key,omitempty"`
}

// maxTrials bounds a sweep job's trial count: the yield sweep allocates
// per-trial slices of that length, so an unbounded count would panic or
// exhaust memory in a worker instead of failing validation at submit.
const maxTrials = 100_000

// tenant returns the effective tenant name.
func (s JobSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// Validate rejects specs the runner could never execute.
func (s JobSpec) Validate() error {
	switch s.Type {
	case TypeDesign, TypeExtract, TypeSweep:
	default:
		return fmt.Errorf("serve: unknown job type %q (want design, extract or sweep)", s.Type)
	}
	if s.MaxEvals < 0 || s.TimeoutMS < 0 || s.Trials < 0 {
		return fmt.Errorf("serve: negative budget in job spec")
	}
	if s.Trials > maxTrials {
		return fmt.Errorf("serve: trials = %d, want at most %d", s.Trials, maxTrials)
	}
	if s.Type == TypeExtract && s.Model != "" {
		if _, ok := device.ModelByName(s.Model); !ok {
			return fmt.Errorf("serve: unknown DC model %q for an extract job", s.Model)
		}
	}
	return nil
}

// Job is one unit of queued work plus its full lifecycle so far. The queue
// owns the canonical copy; API handlers and workers operate on snapshots.
type Job struct {
	// ID is the queue-assigned identifier ("j" + submit sequence).
	ID string `json:"id"`
	// Spec is the admitted spec (post admission clamping).
	Spec JobSpec `json:"spec"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Attempt counts executions started (1 on the first run; a retry or a
	// crash-recovery resume increments it).
	Attempt int `json:"attempt,omitempty"`
	// Error holds the last failure message for failed/quarantined jobs.
	Error string `json:"error,omitempty"`
	// Result is the terminal result document for succeeded jobs.
	Result json.RawMessage `json:"result,omitempty"`
	// Seq is the submit sequence number, the FIFO order within a priority.
	Seq uint64 `json:"seq"`
	// Trace is the durable causal-trace identity assigned at submission and
	// persisted with the job, so the trace survives restarts: every process
	// that touches the job (submit handler, each worker attempt, even after
	// a SIGKILL) emits its spans under the same trace ID. Zero for jobs
	// journaled before the trace model.
	Trace uint64 `json:"trace,omitempty"`
	// SubmittedMS/StartedMS/DoneMS are unix-milli lifecycle timestamps.
	SubmittedMS int64 `json:"submitted_ms,omitempty"`
	StartedMS   int64 `json:"started_ms,omitempty"`
	DoneMS      int64 `json:"done_ms,omitempty"`
	// QueuedMS is when the job last (re)entered the pending queue — the
	// submission for a fresh job, the requeue for a resumed one — the anchor
	// the queue-wait measurement and the oldest-age gauge use.
	QueuedMS int64 `json:"queued_ms,omitempty"`
	// Resumed marks a run that was recovered from the journal after a
	// crash and re-queued to resume from its checkpoints.
	Resumed bool `json:"resumed,omitempty"`
}

// clone returns a deep-enough copy for handing outside the queue lock
// (Result is never mutated in place, so sharing the backing array is safe).
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// nowMS is the job-lifecycle clock, injectable for tests.
func nowMS(now func() time.Time) int64 {
	if now == nil {
		now = time.Now
	}
	return now().UnixMilli()
}

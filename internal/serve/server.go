package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/obs/export"
	"gnsslna/internal/resilience"
)

// Options assembles a Server.
type Options struct {
	// Dir is the data root: the queue journal lives in Dir/queue, artifacts
	// in Dir/artifacts (jobs/ + deadletter/).
	Dir string
	// Workers sizes the fleet (minimum 1).
	Workers int
	// Queue tunes the durable queue (depth bound, compaction, clock).
	Queue QueueOptions
	// Tenants maps tenant name to admission policy; DefaultPolicy covers
	// the rest. A zero DefaultPolicy admits everything.
	Tenants       map[string]TenantPolicy
	DefaultPolicy TenantPolicy
	// Runner executes jobs (nil: the standard design/extract/sweep runner).
	Runner Runner
	// Retry is the per-job transient-failure policy (zero: one attempt).
	Retry resilience.RetryPolicy
	// MaxPanics quarantines a job after this many panicking attempts
	// (0: first panic is poison).
	MaxPanics int
	// DefaultTimeout bounds attempts for specs without one (0: 5 minutes).
	DefaultTimeout time.Duration
	// Registry lands the jobs.* metrics and backs /metrics (nil: a fresh
	// private registry).
	Registry *obs.Registry
	// Observer receives the durable job-trace events and the solver spans
	// nested under them, each stamped with the owning job's persisted
	// trace identity (nil: disabled).
	Observer obs.Observer
	// Broadcast feeds /events (nil: endpoint disabled).
	Broadcast *export.Broadcaster
}

// Server glues queue, admission, fleet, store and the HTTP surface into
// the design-as-a-service endpoint.
type Server struct {
	q        *Queue
	store    *Store
	fleet    *Fleet
	adm      *Admission
	reg      *obs.Registry
	metrics  *Metrics
	sink     obs.Observer
	slo      *sloPlane
	handler  http.Handler
	draining atomic.Bool
}

// healthPayload is the /healthz document.
type healthPayload struct {
	OK         bool   `json:"ok"`
	State      string `json:"state"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	// OldestAgeMS is the age of the longest-waiting queued job; DeadLetter
	// counts quarantined jobs in the dead-letter directory.
	OldestAgeMS int64 `json:"oldest_age_ms"`
	DeadLetter  int   `json:"deadletter"`
	Recovered   struct {
		Queued     int `json:"queued"`
		Resumed    int `json:"resumed"`
		Terminal   int `json:"terminal"`
		TailLosses int `json:"tail_losses"`
	} `json:"recovered"`
	// SLO carries each configured tenant objective's current standing (only
	// present when the tenants policy defines SLOs). A burning SLO does not
	// flip OK — readiness is about serving, not about meeting targets — but
	// orchestration and alerting read the burn rates from here.
	SLO []TenantSLO `json:"slo,omitempty"`
}

// New opens the durable queue under the data root (recovering any previous
// state), builds the admission gate and worker fleet, and wires the HTTP
// handler. Call Start to begin draining the queue and Shutdown to stop.
func New(o Options) (*Server, error) {
	if o.Dir == "" {
		return nil, errors.New("serve: Options.Dir required")
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	q, err := OpenQueue(filepath.Join(o.Dir, "queue"), o.Queue)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(filepath.Join(o.Dir, "artifacts"))
	if err != nil {
		q.Close()
		return nil, err
	}
	runner := o.Runner
	if runner == nil {
		runner = StdRunner()
	}
	s := &Server{
		q:       q,
		store:   store,
		adm:     NewAdmission(o.Tenants, o.DefaultPolicy, q.InFlight, o.Queue.Now),
		reg:     reg,
		metrics: NewMetrics(reg),
		sink:    o.Observer,
		slo:     newSLOPlane(reg, o.Tenants, o.DefaultPolicy),
	}
	s.fleet = NewFleet(q, store, runner, FleetOptions{
		Workers:        o.Workers,
		Retry:          o.Retry,
		MaxPanics:      o.MaxPanics,
		DefaultTimeout: o.DefaultTimeout,
		Observer:       o.Observer,
		Metrics:        s.metrics,
	})
	s.metrics.observeQueue(q, store)
	rep := q.Recovery()
	if reg != nil {
		reg.Counter("jobs.recovered.queued").Add(int64(rep.Queued))
		reg.Counter("jobs.recovered.resumed").Add(int64(rep.Resumed))
		reg.Counter("jobs.recovered.tail_losses").Add(int64(len(rep.TailLosses)))
	}
	s.handler = s.buildMux(export.NewHandler(export.Options{
		Registry:  reg,
		Broadcast: o.Broadcast,
		Health:    func() resilience.HealthState { return resilience.HealthState{OK: !s.draining.Load()} },
		RunsDir:   o.Dir,
	}))
	return s, nil
}

// Start launches the worker fleet.
func (s *Server) Start() { s.fleet.Start() }

// Queue exposes the underlying queue (tests, load tooling).
func (s *Server) Queue() *Queue { return s.q }

// Shutdown degrades gracefully: /healthz flips to draining (orchestrators
// stop routing), new submissions get 503, in-flight jobs are canceled
// cooperatively and re-queued with their checkpoints, and the journal
// closes cleanly. Bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.fleet.Stop(ctx)
	return s.q.Close()
}

// Handler returns the full HTTP surface: the job API plus the telemetry
// endpoints of the export server (/metrics, /events, /runs, /debug/pprof).
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) buildMux(telemetry http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// /metrics refreshes the derived gauges (queue age, dead-letter, SLO
	// burn rates) on the way in, so every scrape is self-consistent without
	// a background refresher.
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.refreshDerived()
		telemetry.ServeHTTP(w, r)
	}))
	mux.Handle("GET /events", telemetry)
	mux.Handle("GET /runs", telemetry)
	mux.Handle("/debug/pprof/", telemetry)
	return mux
}

// refreshDerived recomputes the scrape-time gauges: queue shape (depth,
// running, oldest age, dead-letter count) and the SLO plane.
func (s *Server) refreshDerived() []TenantSLO {
	s.metrics.observeQueue(s.q, s.store)
	return s.slo.refresh()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the uniform error document.
type apiError struct {
	Error string `json:"error"`
	// RetryAfterMS mirrors the Retry-After header for JSON-only clients.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// maxSpecBytes caps a job-submission body. A JobSpec encodes in a few
// hundred bytes; a larger body is refused with 413 before it is decoded.
const maxSpecBytes = 64 << 10

// decodeJobSpec decodes a submission body: one JSON job spec, with nothing
// after it but whitespace.
func decodeJobSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	err := json.Unmarshal(body, &spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: fmt.Sprintf("job spec larger than %d bytes", maxSpecBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	spec, err := decodeJobSpec(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	tenant := spec.tenant()
	if err := s.adm.Admit(&spec); err != nil {
		if oq, ok := AsOverQuota(err); ok {
			s.metrics.inc("jobs.rejected", tenant)
			secs := int64(oq.RetryAfter.Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeJSON(w, http.StatusTooManyRequests, apiError{
				Error:        err.Error(),
				RetryAfterMS: oq.RetryAfter.Milliseconds(),
			})
			return
		}
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	res, err := s.q.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.metrics.inc("jobs.rejected", tenant)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error(), RetryAfterMS: 1000})
			return
		}
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if res.Shed != nil {
		s.metrics.inc("jobs.shed", res.Shed.Spec.tenant())
		emitJobDone(s.sink, res.Shed)
	}
	if res.Deduped {
		s.metrics.inc("jobs.deduped", tenant)
		writeJSON(w, http.StatusOK, res.Job)
		return
	}
	s.metrics.inc("jobs.submitted", tenant)
	emitJobSubmitted(s.sink, res.Job)
	s.metrics.observeQueue(s.q, s.store)
	writeJSON(w, http.StatusAccepted, res.Job)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.q.List(r.URL.Query().Get("tenant")))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.q.Get(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	if j.State != StateSucceeded {
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job %s is %s, not succeeded", id, j.State)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(j.Result)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.q.Cancel(id)
	if err != nil {
		code := http.StatusNotFound
		if errors.Is(err, ErrNotCancelable) {
			code = http.StatusConflict
		}
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	s.fleet.CancelJob(id)
	s.metrics.inc("jobs.canceled", j.Spec.tenant())
	emitJobDone(s.sink, j)
	writeJSON(w, http.StatusOK, j)
}

// handleHealthz reports readiness: 200 while serving, 503 with state
// "draining" once Shutdown begins — the degradation orchestration probes
// key off.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var p healthPayload
	p.OK = !s.draining.Load()
	p.State = "ready"
	if !p.OK {
		p.State = "draining"
	}
	p.SLO = s.refreshDerived()
	p.QueueDepth = s.q.Depth()
	p.Running = s.q.RunningCount()
	if oldest := s.q.OldestQueuedMS(); oldest > 0 {
		if age := nowMS(s.q.opts.Now) - oldest; age > 0 {
			p.OldestAgeMS = age
		}
	}
	p.DeadLetter = s.store.DeadLetterCount()
	rep := s.q.Recovery()
	p.Recovered.Queued = rep.Queued
	p.Recovered.Resumed = rep.Resumed
	p.Recovered.Terminal = rep.Terminal
	p.Recovered.TailLosses = len(rep.TailLosses)
	code := http.StatusOK
	if !p.OK {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, p)
}

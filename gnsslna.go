// Package gnsslna reproduces "Multi-objective optimization of a low-noise
// antenna amplifier for multi-constellation satellite-navigation receivers"
// (Dobeš et al., SOCC 2015) as a Go library: pHEMT modeling and three-step
// parameter extraction, an improved goal-attainment multi-objective
// optimizer, dispersive passive-element models, and the complete design
// flow for a 1.1-1.7 GHz GNSS antenna preamplifier, verified against a
// synthetic measurement substrate.
//
// This file is the facade: the one-call entry points a downstream user
// needs. The building blocks live under internal/ (device, extract, optim,
// rfpassive, noise, twoport, mna, vna, core, experiments) and are exercised
// by the examples and the cmd/ tools.
package gnsslna

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/experiments"
	"gnsslna/internal/extract"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/serve"
	"gnsslna/internal/vna"
)

// ProgressEvent is one observation from the running pipelines: an optimizer
// convergence record, the start or end of a pipeline stage, or a completed
// search. Events carry no pointers and are safe to retain.
type ProgressEvent struct {
	// Event names the record kind: "generation" (one optimizer iteration),
	// "span-begin"/"span-end" (a pipeline stage), "done" (a finished
	// search), "sample" (a scalar probe), "fault" (a quarantined objective
	// evaluation), "breaker" (a tripped circuit breaker), or "restart" (a
	// jittered multi-start recovery attempt).
	Event string
	// Scope identifies the emitting stage, e.g. "design.attain.de",
	// "extract.step2.dcfit", "experiment.e4".
	Scope string
	// Gen is the iteration index for "generation" events.
	Gen int
	// Evals counts objective evaluations (cumulative for "generation" and
	// "done", per-stage for "span-end").
	Evals int64
	// Best is the best objective value so far where meaningful.
	Best float64
	// Value carries stage wall time in milliseconds for "span-end" events
	// and the probed scalar for "sample" events.
	Value float64
	// Trace identifies the run and Span/Parent the causal span the event
	// belongs to, when the pipeline runs traced (all zero otherwise).
	Trace, Span, Parent uint64
	// Worker is the 1-based pool-worker ordinal for worker-attributed
	// spans (zero for driver-side events).
	Worker int
}

// Observer receives progress events from the facade workflows. Callbacks
// run synchronously on the optimization goroutine and must be fast; they
// may be invoked from the innermost loops.
type Observer func(ProgressEvent)

// Options configures the facade workflows.
type Options struct {
	// Seed drives every random process deterministically. The zero value
	// selects the default seed 1, so Seed: 0 and Seed: 1 produce identical
	// runs.
	Seed int64
	// Quick trims optimization budgets (for demos and tests).
	Quick bool
	// Observer, when set, receives progress events from every pipeline the
	// workflow runs (nil: disabled, with no overhead in the hot loops).
	Observer Observer
	// Context, when set, cancels the workflow cooperatively: the solvers
	// poll it once per generation and return the best point found so far
	// with an error recognizable by Stopped (nil: never canceled).
	Context context.Context
	// Timeout bounds the workflow wall-clock time (0: unbounded). Like
	// Context, expiry returns the best-so-far result plus a Stopped error.
	Timeout time.Duration
	// MaxEvals bounds the total objective evaluations across the workflow
	// (0: unbounded).
	MaxEvals int64
	// Restarts bounds the jittered multi-start recoveries of the design
	// optimization after circuit-breaker trips (0: single attempt).
	Restarts int
	// Checkpoint, when non-empty, names a JSONL file that completed
	// pipeline stages are appended to and restored from on a later run
	// with the same Seed and Quick mode, skipping recomputation.
	Checkpoint string
	// Workers bounds the goroutines the optimization and sweep stages use
	// to fan out candidate evaluations. The default (0 or 1) is fully
	// serial — exactly today's behavior — and every result is bit-identical
	// for any worker count: all randomness stays on the driving goroutine
	// and workers only evaluate the objective.
	Workers int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// controller builds the run controller for the options, or nil when no
// limit is configured.
func (o Options) controller() *resilience.RunController {
	if o.Context == nil && o.Timeout <= 0 && o.MaxEvals <= 0 {
		return nil
	}
	co := resilience.ControllerOptions{Context: o.Context, MaxEvals: o.MaxEvals}
	if o.Timeout > 0 {
		co.Deadline = time.Now().Add(o.Timeout)
	}
	return resilience.NewController(co)
}

// Stopped reports whether err (from any facade workflow) means the run was
// stopped early — by cancellation ("canceled"), wall-clock deadline
// ("deadline"), evaluation budget ("eval-budget") or circuit breaker
// ("breaker") — and names the reason. DesignLNA additionally returns its
// best-so-far design alongside such an error.
func Stopped(err error) (reason string, ok bool) {
	if st, ok := resilience.AsStopped(err); ok {
		return st.Reason.String(), true
	}
	return "", false
}

// observer adapts the public callback to the internal observer interface.
// The adapter is wrapped in a fresh tracer so facade runs carry causal
// identity (ProgressEvent.Trace/Span/Parent/Worker) just like CLI sessions;
// workflows that observe several phases must call this once and share the
// result, or the phases land on different trace IDs.
func (o Options) observer() obs.Observer {
	if o.Observer == nil {
		return nil
	}
	fn := o.Observer
	tr := obs.NewTracer()
	tr.SetOutliers(obs.NewOutlierDetector())
	return obs.NewTraced(obs.Func(func(e obs.Event) {
		fn(ProgressEvent{
			Event:  e.Kind.String(),
			Scope:  e.Scope,
			Gen:    e.Gen,
			Evals:  e.Evals,
			Best:   e.Best,
			Value:  e.Value,
			Trace:  uint64(e.Trace),
			Span:   uint64(e.Span),
			Parent: uint64(e.Parent),
			Worker: e.Worker,
		})
	}), tr)
}

// DesignReport flattens the outcome of the complete design flow.
type DesignReport struct {
	// Design and Snapped are the continuous and E24-snapped optima.
	Design, Snapped core.Design
	// Gamma is the goal-attainment factor (<= 0: all goals met).
	Gamma float64
	// WorstNFdB, MinGTdB grade the snapped design over the band.
	WorstNFdB, MinGTdB float64
	// StabMargin is min(mu)-1 over the wide stability scan.
	StabMargin float64
	// IdsA and PdcW report the bias point cost.
	IdsA, PdcW float64
}

// DesignLNA runs the full paper flow — synthetic measurement campaign,
// three-step extraction of an Angelov model, improved goal-attainment
// selection of the operating point and passive elements — and reports the
// finished multi-constellation preamplifier. When the run is stopped early
// (see Options.Context, Timeout, MaxEvals and the Stopped predicate) the
// report holds the best design found so far and the error names the
// reason.
func DesignLNA(opts Options) (DesignReport, error) {
	s := experiments.NewSuite(experiments.Config{
		Seed: opts.seed(), Quick: opts.Quick, Observer: opts.observer(),
		Control: opts.controller(), Checkpoint: opts.Checkpoint, Restarts: opts.Restarts,
		Workers: opts.Workers,
	})
	res, err := s.Design()
	if err != nil {
		err = fmt.Errorf("gnsslna: design: %w", err)
		if res == nil {
			return DesignReport{}, err
		}
	}
	return DesignReport{
		Design:     res.Design,
		Snapped:    res.Snapped,
		Gamma:      res.Gamma,
		WorstNFdB:  res.SnappedEval.WorstNFdB,
		MinGTdB:    res.SnappedEval.MinGTdB,
		StabMargin: res.SnappedEval.StabMargin,
		IdsA:       res.SnappedEval.IdsA,
		PdcW:       res.SnappedEval.PdcW,
	}, err
}

// ExtractionReport flattens an extraction run.
type ExtractionReport struct {
	// ModelName identifies the fitted DC model class.
	ModelName string
	// DCRelRMSE is the relative DC fit error.
	DCRelRMSE float64
	// SRMSE is the normalized S-parameter fit error.
	SRMSE float64
	// Device is the extracted transistor, usable with core.NewBuilder.
	Device *device.PHEMT
}

// ExtractModel runs the synthetic measurement campaign on the golden device
// and extracts the named model class ("Curtice-2", "Curtice-3", "Statz",
// "TOM" or "Angelov") with the three-step procedure.
func ExtractModel(modelName string, opts Options) (ExtractionReport, error) {
	dc, ok := device.ModelByName(modelName)
	if !ok {
		return ExtractionReport{}, fmt.Errorf("gnsslna: unknown model %q", modelName)
	}
	obsv := opts.observer()
	campaign := vna.DefaultCampaign(opts.seed())
	campaign.Observer = obsv
	ds, err := vna.RunCampaign(device.Golden(), campaign)
	if err != nil {
		return ExtractionReport{}, fmt.Errorf("gnsslna: campaign: %w", err)
	}
	cfg := extract.Config{Seed: opts.seed(), Observer: obsv, Control: opts.controller(), Workers: opts.Workers}
	if opts.Quick {
		cfg = cfg.Quick()
	}
	res, err := extract.ThreeStep(ds, dc, cfg)
	if err != nil {
		return ExtractionReport{}, fmt.Errorf("gnsslna: extraction: %w", err)
	}
	return ExtractionReport{
		ModelName: dc.Name(),
		DCRelRMSE: res.DC.RelRMSE,
		SRMSE:     res.SRMSE,
		Device:    res.Device,
	}, nil
}

// ExperimentIDs returns the valid experiment identifiers in canonical run
// order (currently e1..e12 plus the e4b ablation).
func ExperimentIDs() []string {
	return experiments.NewSuite(experiments.Config{}).IDs()
}

// RunExperiment renders one reconstructed experiment (see ExperimentIDs) or
// all of them ("all") as paper-style text tables.
func RunExperiment(id string, opts Options) (string, error) {
	s := experiments.NewSuite(experiments.Config{
		Seed: opts.seed(), Quick: opts.Quick, Observer: opts.observer(),
		Control: opts.controller(), Checkpoint: opts.Checkpoint, Restarts: opts.Restarts,
		Workers: opts.Workers,
	})
	if id == "all" {
		tables, err := s.All()
		if err != nil {
			return "", err
		}
		out := ""
		for _, t := range tables {
			out += t.Render() + "\n"
		}
		return out, nil
	}
	t, err := s.Run(id)
	if err != nil {
		if errors.Is(err, experiments.ErrUnknownExperiment) {
			return "", fmt.Errorf("gnsslna: unknown experiment %q (want %s or all)",
				id, strings.Join(s.IDs(), ", "))
		}
		return "", err
	}
	return t.Render(), nil
}

// AttainOptions exposes the optimizer budget type for advanced callers.
type AttainOptions = optim.AttainOptions

// JobServerOptions configures StartJobServer, the embedded
// design-as-a-service endpoint (the same engine cmd/lnaservd runs).
type JobServerOptions struct {
	// Dir is the data root: the durable queue journal and job artifacts
	// live under it, and a restart over the same directory resumes every
	// acknowledged job.
	Dir string
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Workers sizes the job worker fleet (minimum 1).
	Workers int
	// Retries is the per-job attempt budget on transient failure
	// (0: single attempt).
	Retries int
	// JournalPath, when set, writes the JSONL observability journal there:
	// durable job traces (spanning restarts over the same Dir) and solver
	// spans, anchored with an epoch record so `obsreport trace -tree` and
	// `obsreport serve` can stitch the journals of successive processes.
	JournalPath string
	// Tenants maps tenant name to admission policy — rate, burst, in-flight
	// and evaluation quotas, plus optional SLO targets surfaced as burn-rate
	// gauges on /metrics and /healthz. Nil admits everything.
	Tenants map[string]TenantPolicy
}

// TenantPolicy re-exports the job server's per-tenant admission contract and
// SLO targets for facade callers.
type TenantPolicy = serve.TenantPolicy

// JobServer is a running design-as-a-service endpoint: jobs submitted to
// POST {URL}/jobs survive crashes, pass admission control and execute on a
// worker fleet. See cmd/lnaservd for the full API and operational story.
type JobServer struct {
	srv     *serve.Server
	http    *http.Server
	addr    string
	journal *obs.Journal
}

// StartJobServer opens the durable job queue under opts.Dir (recovering any
// previous state), starts the worker fleet, and listens on opts.Addr.
// Callers own shutdown: defer Shutdown to drain gracefully.
func StartJobServer(opts JobServerOptions) (*JobServer, error) {
	if opts.Dir == "" {
		return nil, errors.New("gnsslna: JobServerOptions.Dir required")
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var journal *obs.Journal
	var sink obs.Observer
	if opts.JournalPath != "" {
		j, err := obs.OpenJournal(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("gnsslna: job server: %w", err)
		}
		if err := j.AppendEpoch(); err != nil {
			j.Close()
			return nil, fmt.Errorf("gnsslna: job server: %w", err)
		}
		journal = j
		// A raw hub, not a Traced: the serve layer stamps each event with
		// the job's durable trace identity.
		sink = obs.NewHub(nil, j)
	}
	s, err := serve.New(serve.Options{
		Dir:      opts.Dir,
		Workers:  opts.Workers,
		Retry:    resilience.RetryPolicy{MaxAttempts: opts.Retries},
		Tenants:  opts.Tenants,
		Observer: sink,
	})
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, fmt.Errorf("gnsslna: job server: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		if journal != nil {
			journal.Close()
		}
		return nil, fmt.Errorf("gnsslna: job server: %w", err)
	}
	s.Start()
	js := &JobServer{srv: s, http: &http.Server{Handler: s.Handler()}, addr: ln.Addr().String(), journal: journal}
	go func() { _ = js.http.Serve(ln) }()
	return js, nil
}

// URL returns the server's base URL (http://host:port).
func (js *JobServer) URL() string { return "http://" + js.addr }

// Shutdown drains the server: /healthz degrades to draining, new
// submissions are refused, in-flight jobs checkpoint and re-queue for the
// next start, and the queue journal closes cleanly. Bounded by ctx.
func (js *JobServer) Shutdown(ctx context.Context) error {
	err := js.srv.Shutdown(ctx)
	if herr := js.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if js.journal != nil {
		if jerr := js.journal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

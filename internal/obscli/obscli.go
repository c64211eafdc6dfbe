// Package obscli wires the observability and resilience layers into the
// command-line tools: it registers the shared -journal, -metrics, -pprof and
// -serve flags plus the run-control flags (-timeout, -max-evals, -checkpoint,
// -resume, -restarts), assembles the metrics registry / run journal / live
// telemetry endpoint behind them, publishes the registry through expvar, and
// handles teardown. Commands call Register before flag.Parse, Start after it,
// thread Session.Observer() and Session.Controller() into the pipelines, and
// defer Session.Close.
package obscli

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/obs/export"
	"gnsslna/internal/resilience"
)

// expvarName is the key the metrics registry is published under; expvar's
// /debug/vars endpoint then exposes the snapshot alongside the runtime vars.
const expvarName = "gnsslna"

// Flags holds the observability and run-control command-line flags.
type Flags struct {
	// Journal is the JSONL run-journal path ("" disables).
	Journal string
	// Metrics requests a metrics snapshot dump on exit.
	Metrics bool
	// Pprof is the listen address for net/http/pprof and expvar
	// ("" disables).
	Pprof string
	// Serve is the listen address of the live telemetry endpoint: /metrics
	// (Prometheus text format), /healthz, /runs, /events (SSE) and
	// /debug/pprof ("" disables).
	Serve string
	// Timeout bounds the run wall-clock time (0: unbounded).
	Timeout time.Duration
	// MaxEvals bounds the total objective evaluations (0: unbounded).
	MaxEvals int64
	// Checkpoint is the JSONL stage-checkpoint path: completed pipeline
	// stages are appended to it and restored from it on a later run with
	// the same seed and budgets ("" disables).
	Checkpoint string
	// Restarts bounds the jittered multi-start recoveries after
	// circuit-breaker trips (0: single attempt).
	Restarts int
	// Workers bounds the goroutines used to fan out candidate evaluations
	// (1: serial; results are identical for any worker count).
	Workers int
}

// Register installs the observability flags (-journal, -metrics, -pprof,
// -serve) and the run-control flags (-timeout, -max-evals, -checkpoint, -resume,
// -restarts) on the flag set. -resume is an alias of -checkpoint that
// reads more naturally when pointing a fresh run at an existing file.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Journal, "journal", "", "write a JSONL run journal to this `path`")
	fs.BoolVar(&f.Metrics, "metrics", false, "print a metrics snapshot when the run finishes")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and expvar on this `address` (e.g. localhost:6060)")
	fs.StringVar(&f.Serve, "serve", "", "serve the live telemetry endpoint (/metrics, /healthz, /runs, /events, /debug/pprof) on this `address` (port 0 picks a free port)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "stop the run after this wall-clock `duration`, keeping the best result so far (0: unbounded)")
	fs.Int64Var(&f.MaxEvals, "max-evals", 0, "stop the run after `N` objective evaluations, keeping the best result so far (0: unbounded)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "append completed pipeline stages to this JSONL `path` and reuse matching stages already recorded there")
	fs.StringVar(&f.Checkpoint, "resume", "", "alias of -checkpoint: resume from (and keep extending) a previous run's stage file")
	fs.IntVar(&f.Restarts, "restarts", 0, "allow up to `N` jittered multi-start recoveries after circuit-breaker trips")
	fs.IntVar(&f.Workers, "workers", 1, "fan candidate evaluations across `N` goroutines (results are identical for any worker count)")
	return f
}

// Session is the live observability context of one command run.
type Session struct {
	flags       Flags
	stdout      io.Writer
	reg         *obs.Registry
	j           *obs.Journal
	hub         *obs.Hub
	bc          *export.Broadcaster
	srv         *export.Server
	traced      *obs.Traced
	sampler     *obs.RuntimeSampler
	runScope    string
	runStart    time.Time
	ctrl        atomic.Pointer[resilience.RunController]
	stopSignals context.CancelFunc
}

// Start opens the journal (when requested), assembles the hub, publishes the
// registry under expvar, serves pprof when an address is given, and starts
// the live telemetry endpoint behind -serve. When no observability flag is
// set it returns an inert session whose Observer is nil, keeping the
// pipelines' hot loops free of instrumentation. The session writes its
// notices to the command's stderr and the -metrics snapshot to its stdout.
func (f *Flags) Start(stdout, stderr io.Writer) (*Session, error) {
	s := &Session{flags: *f, stdout: stdout}
	if f.Journal == "" && !f.Metrics && f.Pprof == "" && f.Serve == "" {
		return s, nil
	}
	if f.Journal != "" {
		j, err := obs.OpenJournal(f.Journal)
		if err != nil {
			return nil, fmt.Errorf("obscli: %w", err)
		}
		s.j = j
	}
	s.reg = obs.NewRegistry()
	s.hub = obs.NewHub(s.reg, s.j)
	// Publish is idempotent across sessions in one process (tests): expvar
	// panics on duplicate names, so only the first session owns the name.
	if expvar.Get(expvarName) == nil {
		expvar.Publish(expvarName, s.reg)
	}
	if f.Pprof != "" {
		go func(addr string) {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(stderr, "obscli: pprof server:", err)
			}
		}(f.Pprof)
	}
	if f.Serve != "" {
		s.bc = export.NewBroadcaster()
		runsDir := "."
		if f.Journal != "" {
			runsDir = filepath.Dir(f.Journal)
		}
		srv, err := export.Serve(f.Serve, export.Options{
			Registry:  s.reg,
			Broadcast: s.bc,
			Health:    s.health,
			RunsDir:   runsDir,
		})
		if err != nil {
			if s.j != nil {
				_ = s.j.Close()
			}
			return nil, fmt.Errorf("obscli: telemetry server: %w", err)
		}
		s.srv = srv
		fmt.Fprintf(stderr, "obscli: telemetry endpoint on http://%s\n", srv.Addr())
	}

	// Every observed run is traced: the tracer stamps run/span identity onto
	// each event, the root "run.<tool>" span brackets the whole command, and
	// the outlier detector arms the pool's slow-evaluation flagging.
	sink := obs.Observer(s.hub)
	if s.bc != nil {
		sink = obs.Multi(s.hub, s.bc)
		s.bc.CountDrops(s.reg.Counter("sse.dropped"))
	}
	tracer := obs.NewTracer()
	tracer.SetOutliers(obs.NewOutlierDetector())
	s.traced = obs.NewTraced(sink, tracer)
	s.runScope = "run." + filepath.Base(os.Args[0])
	s.runStart = time.Now()
	s.traced.Observe(obs.Event{Kind: obs.KindSpanBegin, Scope: s.runScope})

	// Process health: runtime gauges land in the registry (the
	// gnsslna_runtime_* families on /metrics); the sample events go only to
	// the SSE stream — routing them through the hub would collide the gauge
	// names with the hub's sample histograms.
	var health obs.Observer
	if s.bc != nil {
		health = s.bc
	}
	s.sampler = obs.StartRuntimeSampler(s.reg, health, 0)
	return s, nil
}

// health adapts the session's run controller (set by Controller) for the
// telemetry endpoint's /healthz probe. Before Controller runs — or when no
// limits apply — the nil controller reports a healthy, unbounded run.
func (s *Session) health() resilience.HealthState {
	return s.ctrl.Load().Health()
}

// Observer returns the session's observer, or nil when observation is
// disabled (callers can pass the result straight into the pipelines). The
// observer is the run's root traced span: every event a pipeline emits
// through it carries the session's trace identity, and with -serve active
// the stamped events fan out to the SSE broadcaster as well.
func (s *Session) Observer() obs.Observer {
	if s.traced == nil {
		return nil
	}
	return s.traced
}

// Registry exposes the metrics registry (nil when observation is disabled).
func (s *Session) Registry() *obs.Registry { return s.reg }

// Controller builds the run controller for the session's -timeout and
// -max-evals flags and arms SIGINT: the first Ctrl-C cancels the run
// cooperatively (the solvers return their best-so-far result), a second
// one terminates the process as usual. It returns a live controller even
// when no limit flag is set, so every command run stays interruptible.
func (s *Session) Controller() *resilience.RunController {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	s.stopSignals = stop
	co := resilience.ControllerOptions{Context: ctx, MaxEvals: s.flags.MaxEvals}
	if s.flags.Timeout > 0 {
		co.Deadline = time.Now().Add(s.flags.Timeout)
	}
	c := resilience.NewController(co)
	s.ctrl.Store(c)
	if s.srv != nil {
		// Drain the telemetry endpoint as soon as the run is cancelled:
		// SSE clients see their streams end and the listener closes while
		// the solvers are still unwinding to their best-so-far result.
		// Close() also cancels ctx, so this goroutine never leaks.
		go func() {
			<-ctx.Done()
			s.shutdownServer()
		}()
	}
	return c
}

// shutdownServer drains the telemetry server (idempotent, bounded wait).
func (s *Session) shutdownServer() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// ServeAddr returns the telemetry endpoint's bound listen address (the
// resolved port when -serve used port 0), or "" when -serve is off.
func (s *Session) ServeAddr() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.Addr()
}

// Checkpoint returns the -checkpoint/-resume path ("" when disabled).
func (s *Session) Checkpoint() string { return s.flags.Checkpoint }

// Restarts returns the -restarts budget.
func (s *Session) Restarts() int { return s.flags.Restarts }

// Workers returns the -workers fan-out width (>= 1).
func (s *Session) Workers() int {
	if s.flags.Workers < 1 {
		return 1
	}
	return s.flags.Workers
}

// Close drains the telemetry server, appends the final metrics snapshot to
// the journal, flushes and closes it, and prints the snapshot to the
// command's stdout when -metrics was given.
func (s *Session) Close() error {
	var firstErr error
	if s.stopSignals != nil {
		s.stopSignals()
	}
	if s.sampler != nil {
		// Final health sample before the root span closes, so even a short
		// run journals and exports one snapshot.
		s.sampler.Stop()
	}
	if s.traced != nil {
		s.traced.Observe(obs.Event{
			Kind:  obs.KindSpanEnd,
			Scope: s.runScope,
			Value: float64(time.Since(s.runStart)) / float64(time.Millisecond),
		})
	}
	if err := s.shutdownServer(); err != nil {
		firstErr = err
	}
	if s.j != nil {
		if err := s.j.AppendSnapshot(s.reg); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.j.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.flags.Metrics && s.reg != nil {
		fmt.Fprintln(s.stdout, "\nmetrics snapshot:")
		if err := s.reg.WriteText(s.stdout); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

package export

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// Options configures the telemetry handler and server.
type Options struct {
	// Registry backs /metrics (nil: endpoint serves an empty exposition).
	Registry *obs.Registry
	// Broadcast feeds the /events SSE stream (nil: the endpoint reports
	// 503, events unavailable).
	Broadcast *Broadcaster
	// Health backs /healthz; nil reports a healthy, unbounded run. The
	// obscli session wires the run controller's Health method in here.
	Health func() resilience.HealthState
	// RunsDir is the directory /runs lists *.jsonl journals from
	// ("" uses the current directory).
	RunsDir string
}

// eventJSON is the SSE data payload, mirroring the public ProgressEvent.
type eventJSON struct {
	Event  string  `json:"event"`
	Scope  string  `json:"scope,omitempty"`
	Gen    int     `json:"gen"`
	Evals  int64   `json:"evals"`
	Best   float64 `json:"best"`
	Value  float64 `json:"value"`
	Trace  uint64  `json:"trace,omitempty"`
	Span   uint64  `json:"span,omitempty"`
	Parent uint64  `json:"parent,omitempty"`
	Worker int     `json:"worker,omitempty"`
}

// RunInfo is one /runs listing entry.
type RunInfo struct {
	// Name is the journal file name within the runs directory.
	Name string `json:"name"`
	// Bytes is the current file size.
	Bytes int64 `json:"bytes"`
	// Modified is the file's last-modified time, RFC 3339.
	Modified string `json:"modified"`
}

// NewHandler builds the telemetry mux: /metrics (Prometheus text format),
// /healthz (run-controller state as JSON), /runs (journal listing as JSON),
// /events (live SSE event stream) and /debug/pprof.
func NewHandler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteBuildInfoProm(w, ReadBuildInfo())
		_ = WritePrometheus(w, o.Registry)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := resilience.HealthState{OK: true}
		if o.Health != nil {
			h = o.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			// The process still serves, but the run has been stopped:
			// surface that to orchestration probes.
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(struct {
			resilience.HealthState
			Build BuildInfo `json:"build"`
		}{h, ReadBuildInfo()})
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		runs, err := listRuns(o.RunsDir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(runs)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(w, r, o.Broadcast)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// listRuns enumerates the *.jsonl journals under dir, sorted by name.
func listRuns(dir string) ([]RunInfo, error) {
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	runs := make([]RunInfo, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		runs = append(runs, RunInfo{
			Name:     e.Name(),
			Bytes:    info.Size(),
			Modified: info.ModTime().UTC().Format(time.RFC3339),
		})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Name < runs[j].Name })
	return runs, nil
}

// serveEvents streams broadcaster events as server-sent events until the
// client disconnects or the broadcaster closes (server shutdown).
func serveEvents(w http.ResponseWriter, r *http.Request, b *Broadcaster) {
	if b == nil {
		http.Error(w, "event stream disabled", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, cancel := b.Subscribe()
	defer cancel()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write([]byte("event: " + e.Kind.String() + "\ndata: ")); err != nil {
				return
			}
			if err := enc.Encode(eventJSON{
				Event: e.Kind.String(), Scope: e.Scope, Gen: e.Gen,
				Evals: e.Evals, Best: e.Best, Value: e.Value,
				Trace: uint64(e.Trace), Span: uint64(e.Span),
				Parent: uint64(e.Parent), Worker: e.Worker,
			}); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// Server is a running telemetry endpoint bound to a listener.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	bc   *Broadcaster
	once sync.Once
	err  error
}

// Serve binds addr (host:port; port 0 picks a free port) and serves the
// telemetry handler on it until Shutdown.
func Serve(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{Handler: NewHandler(o)},
		ln:  ln,
		bc:  o.Broadcast,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (the resolved port for ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains the server gracefully: the broadcaster is closed first so
// every SSE stream ends, then the listener closes and in-flight requests
// finish (bounded by ctx). Shutdown is idempotent; later calls return the
// first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.once.Do(func() {
		if s.bc != nil {
			s.bc.Close()
		}
		s.err = s.srv.Shutdown(ctx)
	})
	return s.err
}

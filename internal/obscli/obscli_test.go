package obscli

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"gnsslna/internal/experiments"
)

// startSession registers the obscli flags on a fresh flag set, parses args,
// and starts the session.
func startSession(t *testing.T, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet("obscli_test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start(io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// sseClient tails the /events stream, reporting generation-event data lines
// on events and stream end on done.
func sseClient(t *testing.T, base string) (events <-chan string, done <-chan struct{}) {
	t.Helper()
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events: status %d", resp.StatusCode)
	}
	evc := make(chan string, 1024)
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		generation := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "event: generation":
				generation = true
			case strings.HasPrefix(line, "data: ") && generation:
				select {
				case evc <- strings.TrimPrefix(line, "data: "):
				default:
				}
				generation = false
			case strings.HasPrefix(line, "event: "):
				generation = false
			}
		}
	}()
	return evc, donec
}

// TestServeSessionEndToEnd is the lnaopt -serve acceptance path: a quick
// design run with -serve 127.0.0.1:0 must expose every registry metric on
// /metrics with cumulative histogram buckets, stream at least one generation
// event to a connected SSE client, and drain the endpoint on SIGINT before
// the run winds down.
func TestServeSessionEndToEnd(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	s := startSession(t, "-serve", "127.0.0.1:0", "-journal", journal)
	addr := s.ServeAddr()
	if addr == "" {
		t.Fatal("ServeAddr empty with -serve set")
	}
	base := "http://" + addr

	events, streamDone := sseClient(t, base)
	deadline := time.Now().Add(5 * time.Second)
	for s.bc.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE client never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("healthz before run: %d %s", code, body)
	}

	ctrl := s.Controller()
	suite := experiments.NewSuite(experiments.Config{
		Seed: 1, Quick: true, Observer: s.Observer(), Control: ctrl,
	})
	if _, err := suite.Design(); err != nil {
		t.Fatalf("quick design: %v", err)
	}

	// The run has finished but its last events may still be in flight to
	// the SSE reader; allow a bounded wait.
	select {
	case data := <-events:
		var payload struct {
			Event string `json:"event"`
			Scope string `json:"scope"`
			Gen   int    `json:"gen"`
		}
		if err := json.Unmarshal([]byte(data), &payload); err != nil {
			t.Fatalf("generation event payload %q: %v", data, err)
		}
		if payload.Event != "generation" || payload.Scope == "" {
			t.Fatalf("generation event payload = %+v", payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no generation event reached the SSE client during the run")
	}

	checkMetricsExposition(t, s, base)

	if code, body := get(t, base+"/runs"); code != http.StatusOK || !strings.Contains(body, "run.jsonl") {
		t.Fatalf("/runs: %d %s", code, body)
	}

	// First Ctrl-C: the cooperative stop must drain the telemetry endpoint —
	// the SSE stream ends and the listener closes — while the session (and
	// its best-so-far reporting) is still alive.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open 5s after SIGINT")
	}
	if err := ctrl.Check(); err == nil {
		t.Error("controller still running after SIGINT")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("telemetry listener still accepting connections after shutdown")
	}
}

// checkMetricsExposition scrapes /metrics and verifies that every metric in
// the registry snapshot appears, and that histogram buckets are cumulative
// with the +Inf bucket equal to the sample count.
func checkMetricsExposition(t *testing.T, s *Session, base string) {
	t.Helper()
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	snap := s.Registry().Snapshot()
	total := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	if total == 0 {
		t.Fatal("registry empty after a design run")
	}
	for name := range snap.Counters {
		if !strings.Contains(body, fmt.Sprintf("{name=%q}", name)) {
			t.Errorf("counter %q missing from exposition", name)
		}
	}
	for name := range snap.Gauges {
		if !strings.Contains(body, fmt.Sprintf("{name=%q}", name)) {
			t.Errorf("gauge %q missing from exposition", name)
		}
	}
	histNames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		var counts []float64
		infCount, sampleCount := -1.0, -1.0
		for _, line := range strings.Split(body, "\n") {
			switch {
			case strings.Contains(line, fmt.Sprintf(`_bucket{name=%q,le=`, name)):
				fields := strings.Fields(line)
				v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
				if err != nil {
					t.Fatalf("bucket line %q: %v", line, err)
				}
				counts = append(counts, v)
				if strings.Contains(line, `le="+Inf"`) {
					infCount = v
				}
			case strings.Contains(line, fmt.Sprintf("_count{name=%q}", name)):
				fields := strings.Fields(line)
				sampleCount, _ = strconv.ParseFloat(fields[len(fields)-1], 64)
			}
		}
		if len(counts) == 0 {
			t.Errorf("histogram %q has no bucket lines", name)
			continue
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				t.Errorf("histogram %q buckets not cumulative at %d: %v", name, i, counts)
				break
			}
		}
		if infCount != sampleCount || sampleCount < 0 {
			t.Errorf("histogram %q: +Inf bucket %v != count %v", name, infCount, sampleCount)
		}
	}
}

// TestInertSessionWithoutFlags pins the zero-overhead path: no flags, no
// observer, no endpoint, Close is a no-op.
func TestInertSessionWithoutFlags(t *testing.T) {
	s := startSession(t)
	if s.Observer() != nil || s.Registry() != nil || s.ServeAddr() != "" {
		t.Fatal("inert session built observability state")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServeWithoutJournal serves the endpoint with only -serve set; /runs
// falls back to the current directory and /metrics serves the registry.
func TestServeWithoutJournal(t *testing.T) {
	s := startSession(t, "-serve", "127.0.0.1:0")
	defer s.Close()
	if s.Observer() == nil {
		t.Fatal("-serve alone must still build an observer")
	}
	if code, _ := get(t, "http://"+s.ServeAddr()+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if code, _ := get(t, "http://"+s.ServeAddr()+"/runs"); code != http.StatusOK {
		t.Fatalf("/runs status %d", code)
	}
}

func TestServeBadAddressFailsStart(t *testing.T) {
	fs := flag.NewFlagSet("obscli_test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-serve", "256.256.256.256:bad"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(io.Discard, io.Discard); err == nil {
		t.Fatal("bad -serve address accepted")
	}
}

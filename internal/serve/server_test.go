package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gnsslna/internal/device"
	"gnsslna/internal/obs"
)

// newTestServer builds a Server over a fake runner and an httptest frontend.
func newTestServer(t *testing.T, o Options, runner Runner) (*Server, *httptest.Server) {
	t.Helper()
	if o.Dir == "" {
		o.Dir = t.TempDir()
	}
	o.Queue.NoSync = true
	if runner != nil {
		o.Runner = runner
	}
	s, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func echoRunner(doc string) Runner {
	return RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		return json.RawMessage(doc), nil
	})
}

func postJob(t *testing.T, url string, spec JobSpec) (*http.Response, *Job) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var j Job
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &j)
	return resp, &j
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, data, err)
		}
	}
	return resp
}

func TestServerSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2}, echoRunner(`{"gamma":-0.2}`))

	resp, j := postJob(t, ts.URL, quickSpec("acme"))
	if resp.StatusCode != http.StatusAccepted || j.ID == "" {
		t.Fatalf("submit: status=%d job=%+v, want 202", resp.StatusCode, j)
	}

	deadline := time.Now().Add(10 * time.Second)
	var cur Job
	for {
		getJSON(t, ts.URL+"/jobs/"+j.ID, &cur)
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cur.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", cur.State, cur.Error)
	}

	var result map[string]float64
	rr := getJSON(t, ts.URL+"/jobs/"+j.ID+"/result", &result)
	if rr.StatusCode != http.StatusOK || result["gamma"] != -0.2 {
		t.Fatalf("result: status=%d body=%v", rr.StatusCode, result)
	}

	// The listing shows the job under its tenant.
	var list []Job
	getJSON(t, ts.URL+"/jobs?tenant=acme", &list)
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("tenant listing = %+v", list)
	}
}

func TestServerResultConflictBeforeDone(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	_, ts := newTestServer(t, Options{Workers: 1}, runner)
	_, j := postJob(t, ts.URL, quickSpec("a"))
	resp := getJSON(t, ts.URL+"/jobs/"+j.ID+"/result", &struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of unfinished job: status=%d, want 409", resp.StatusCode)
	}
}

func TestServerDedupeReturns200(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1}, echoRunner(`{}`))
	spec := quickSpec("a")
	spec.DedupeKey = "design-42"
	r1, j1 := postJob(t, ts.URL, spec)
	r2, j2 := postJob(t, ts.URL, spec)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	if r2.StatusCode != http.StatusOK || j2.ID != j1.ID {
		t.Fatalf("dup submit: status=%d id=%s, want 200 with id %s", r2.StatusCode, j2.ID, j1.ID)
	}
}

func TestServerRateQuota429WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Tenants: map[string]TenantPolicy{
			"greedy": {RatePerSec: 0.5, Burst: 1},
		},
	}, echoRunner(`{}`))

	r1, _ := postJob(t, ts.URL, quickSpec("greedy"))
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	r2, _ := postJob(t, ts.URL, quickSpec("greedy"))
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", r2.StatusCode)
	}
	if ra := r2.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive horizon", ra)
	}

	// Another tenant sails through: quota exhaustion is isolated.
	r3, _ := postJob(t, ts.URL, quickSpec("patient"))
	if r3.StatusCode != http.StatusAccepted {
		t.Fatalf("unaffected tenant: %d, want 202", r3.StatusCode)
	}
}

func TestServerQueueFull503AndPrioritySheds(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	_, ts := newTestServer(t, Options{Workers: 1, Queue: QueueOptions{MaxDepth: 1}}, runner)

	postJob(t, ts.URL, quickSpec("a")) // claimed by the blocked worker
	time.Sleep(20 * time.Millisecond)
	r2, victim := postJob(t, ts.URL, quickSpec("a")) // fills the single queue slot
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("fill submit: %d", r2.StatusCode)
	}

	r3, _ := postJob(t, ts.URL, quickSpec("a"))
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("equal-priority on full queue: %d, want 503", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	urgent := quickSpec("a")
	urgent.Priority = 9
	r4, j4 := postJob(t, ts.URL, urgent)
	if r4.StatusCode != http.StatusAccepted {
		t.Fatalf("priority submit on full queue: %d, want 202 via shedding", r4.StatusCode)
	}
	var shed Job
	getJSON(t, ts.URL+"/jobs/"+victim.ID, &shed)
	if shed.State != StateShed {
		t.Fatalf("victim state = %s, want shed", shed.State)
	}
	var kept Job
	getJSON(t, ts.URL+"/jobs/"+j4.ID, &kept)
	if kept.State.Terminal() {
		t.Fatalf("urgent job unexpectedly terminal: %s", kept.State)
	}
}

func TestServerCancelEndpoint(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	_, ts := newTestServer(t, Options{Workers: 1}, runner)
	_, j := postJob(t, ts.URL, quickSpec("a"))

	resp, err := http.Post(ts.URL+"/jobs/"+j.ID+"/cancel", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status=%v err=%v", resp.Status, err)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/jobs/"+j.ID+"/cancel", "application/json", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestServerBadSpec400(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1}, echoRunner(`{}`))
	resp, _ := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"type":"mine-bitcoin"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`not json`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON body: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"type":"design"} trailing`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec with trailing bytes: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"type":"sweep","quick":true,"trials":4611686018427387904}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize trial count: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServerRejectsOversizeSpec413 posts a body one byte over the cap: 413,
// and no job reaches the queue or its journal. A body exactly at the cap
// is accepted.
func TestServerRejectsOversizeSpec413(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1}, echoRunner(`{}`))
	spec := `{"type":"design","quick":true}`
	pad := func(n int) string { return spec + strings.Repeat(" ", n-len(spec)) }

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(pad(maxSpecBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d, want 413", resp.StatusCode)
	}
	if jobs := s.q.List(""); len(jobs) != 0 {
		t.Fatalf("oversize body queued %d jobs", len(jobs))
	}
	segs, err := filepath.Glob(filepath.Join(dir, "queue", segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if recs, _, tail := readSegment(seg); len(recs) != 0 || tail != nil {
			t.Fatalf("%s holds %d records (tail %v) after an oversize submission", seg, len(recs), tail)
		}
	}

	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(pad(maxSpecBytes)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("body at the cap: %d, want 202", resp.StatusCode)
	}
}

// TestServerRejectsUnknownExtractModel checks that an extract job naming a
// DC model the runner does not know is refused at submission: 400, and no
// job reaches the queue or its journal. An empty model (the default) and
// every known model name are accepted.
func TestServerRejectsUnknownExtractModel(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1}, echoRunner(`{}`))
	resp, _ := postJob(t, ts.URL, JobSpec{Type: TypeExtract, Model: "Bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model: %d, want 400", resp.StatusCode)
	}
	if jobs := s.q.List(""); len(jobs) != 0 {
		t.Fatalf("unknown model queued %d jobs", len(jobs))
	}
	segs, err := filepath.Glob(filepath.Join(dir, "queue", segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if recs, _, tail := readSegment(seg); len(recs) != 0 || tail != nil {
			t.Fatalf("%s holds %d records (tail %v) after a rejected submission", seg, len(recs), tail)
		}
	}

	models := []string{""}
	for _, m := range device.AllModels() {
		models = append(models, m.Name())
	}
	for _, m := range models {
		if resp, _ := postJob(t, ts.URL, JobSpec{Type: TypeExtract, Model: m}); resp.StatusCode != http.StatusAccepted {
			t.Errorf("model %q: %d, want 202", m, resp.StatusCode)
		}
	}
}

func TestServerHealthzDegradesToDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1}, echoRunner(`{}`))

	var h healthPayload
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || !h.OK || h.State != "ready" {
		t.Fatalf("healthz before drain: status=%d payload=%+v", resp.StatusCode, h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	resp = getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusServiceUnavailable || h.OK || h.State != "draining" {
		t.Fatalf("healthz during drain: status=%d payload=%+v, want 503 draining", resp.StatusCode, h)
	}

	// New submissions are refused while draining.
	body, _ := json.Marshal(quickSpec("a"))
	sr, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST while draining: %v", err)
	}
	defer sr.Body.Close()
	if sr.StatusCode != http.StatusServiceUnavailable || sr.Header.Get("Retry-After") == "" {
		t.Fatalf("submit while draining: status=%d Retry-After=%q, want 503 with horizon", sr.StatusCode, sr.Header.Get("Retry-After"))
	}
}

func TestServerMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1}, echoRunner(`{}`))
	_, j := postJob(t, ts.URL, quickSpec("acme"))

	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur Job
		getJSON(t, ts.URL+"/jobs/"+j.ID, &cur)
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"gnsslna_jobs_submitted_acme",
		"gnsslna_jobs_succeeded_acme",
		"gnsslna_jobs_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
}

func TestServerRecoversQueueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})

	s1, err := New(Options{Dir: dir, Workers: 1, Runner: runner, Queue: QueueOptions{NoSync: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.Start()
	var ids []string
	for i := 0; i < 5; i++ {
		res, err := s1.Queue().Submit(JobSpec{Type: TypeDesign, Quick: true, DedupeKey: fmt.Sprintf("k%d", i)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, res.Job.ID)
	}
	time.Sleep(30 * time.Millisecond) // let the single worker claim one
	// Crash: close the journal handle without draining.
	s1.Queue().wal.f.Close()
	close(block)

	s2, err := New(Options{Dir: dir, Workers: 1, Runner: echoRunner(`{}`), Queue: QueueOptions{NoSync: true}})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	rep := s2.Queue().Recovery()
	if rep.Queued+rep.Resumed != 5 {
		t.Fatalf("recovered %d queued + %d resumed, want all 5 acknowledged jobs", rep.Queued, rep.Resumed)
	}
	if rep.Resumed != 1 {
		t.Fatalf("resumed = %d, want exactly the claimed job", rep.Resumed)
	}
	s2.Start()
	for _, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			j, err := s2.Queue().Get(id)
			if err != nil {
				t.Fatalf("Get %s: %v", id, err)
			}
			if j.State.Terminal() {
				if j.State != StateSucceeded {
					t.Fatalf("job %s = %s (%s), want succeeded", id, j.State, j.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished after restart", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

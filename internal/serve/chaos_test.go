package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
	"gnsslna/internal/resilience/chaostest"
)

// TestServdChaosChild is not a test: it is the server process the SIGKILL
// chaos proof below re-executes and murders. It opens a durable (fsync on)
// server over SERVD_CHAOS_DIR, submits 24 jobs, prints each acknowledged ID,
// and then idles until the parent kills it mid-fleet.
func TestServdChaosChild(t *testing.T) {
	if os.Getenv("SERVD_CHAOS_CHILD") != "1" {
		t.Skip("helper process for TestChaosSIGKILLRecoversAllAcknowledgedJobs")
	}
	dir := os.Getenv("SERVD_CHAOS_DIR")
	slow := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return json.RawMessage(fmt.Sprintf(`{"seed":%d}`, job.Spec.Seed)), nil
	})
	s, err := New(Options{Dir: dir, Workers: 3, Runner: slow})
	if err != nil {
		fmt.Printf("CHILD-ERROR %v\n", err)
		os.Exit(1)
	}
	s.Start()
	for i := 0; i < 24; i++ {
		res, err := s.Queue().Submit(JobSpec{
			Type: TypeDesign, Quick: true, Seed: int64(i + 1),
			DedupeKey: fmt.Sprintf("chaos-%d", i),
		})
		if err != nil {
			fmt.Printf("CHILD-ERROR submit %d: %v\n", i, err)
			os.Exit(1)
		}
		// The printed ID is the durability acknowledgment: the record was
		// fsynced before Submit returned.
		fmt.Printf("ACK %s\n", res.Job.ID)
	}
	fmt.Println("READY")
	time.Sleep(time.Hour) // the parent SIGKILLs us long before this
}

// TestChaosSIGKILLRecoversAllAcknowledgedJobs is the crash-recovery proof:
// a server process with 24 acknowledged jobs in flight (some succeeded, some
// running, most queued) is SIGKILLed; a fresh process over the same data
// directory must bring every acknowledged job to a terminal state, and no
// job that already reached a terminal state may run again.
func TestChaosSIGKILLRecoversAllAcknowledgedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos proof skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestServdChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(), "SERVD_CHAOS_CHILD=1", "SERVD_CHAOS_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	defer cmd.Process.Kill()

	var acked []string
	sc := bufio.NewScanner(stdout)
	ready := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ACK "):
			acked = append(acked, strings.TrimSpace(strings.TrimPrefix(line, "ACK ")))
		case strings.HasPrefix(line, "CHILD-ERROR"):
			t.Fatalf("child failed: %s", line)
		case line == "READY":
			ready = true
		}
		if ready {
			break
		}
	}
	if !ready || len(acked) < 20 {
		t.Fatalf("child acknowledged %d jobs (ready=%v), want >= 20", len(acked), ready)
	}

	// Let the fleet chew: some jobs finish, some are mid-run when the SIGKILL
	// lands. 150ms into a 24-job/3-worker/100ms-each run is mid-burn.
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = cmd.Wait()

	// Restart over the same directory. The runner records every job it
	// executes so we can prove terminal jobs never re-run.
	var mu sync.Mutex
	ran := map[string]bool{}
	recorder := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		mu.Lock()
		ran[job.ID] = true
		mu.Unlock()
		return json.RawMessage(fmt.Sprintf(`{"seed":%d}`, job.Spec.Seed)), nil
	})
	s, err := New(Options{Dir: dir, Workers: 4, Runner: recorder})
	if err != nil {
		t.Fatalf("recovery New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	rep := s.Queue().Recovery()
	if got := rep.Queued + rep.Resumed + rep.Terminal; got != len(acked) {
		t.Fatalf("recovered %d jobs (%d queued, %d resumed, %d terminal), want all %d acknowledged",
			got, rep.Queued, rep.Resumed, rep.Terminal, len(acked))
	}
	alreadyDone := map[string]bool{}
	for _, j := range s.Queue().List("") {
		if j.State.Terminal() {
			if j.State != StateSucceeded {
				t.Fatalf("pre-crash job %s recovered as %s (%s)", j.ID, j.State, j.Error)
			}
			alreadyDone[j.ID] = true
		}
	}

	s.Start()
	for _, id := range acked {
		deadline := time.Now().Add(15 * time.Second)
		for {
			j, err := s.Queue().Get(id)
			if err != nil {
				t.Fatalf("acknowledged job %s lost: %v", id, err)
			}
			if j.State.Terminal() {
				if j.State != StateSucceeded {
					t.Fatalf("job %s = %s (%s), want succeeded", id, j.State, j.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never reached terminal after recovery (state %s)", id, j.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// No double-run: nothing that survived the crash already-terminal was
	// handed to a worker again.
	mu.Lock()
	defer mu.Unlock()
	for id := range alreadyDone {
		if ran[id] {
			t.Fatalf("terminal job %s was re-run after recovery", id)
		}
	}

	// And the dedupe keys still bind: resubmitting the whole batch enqueues
	// nothing.
	for i := 0; i < 24; i++ {
		res, err := s.Queue().Submit(JobSpec{
			Type: TypeDesign, Quick: true, Seed: int64(i + 1),
			DedupeKey: fmt.Sprintf("chaos-%d", i),
		})
		if err != nil || !res.Deduped {
			t.Fatalf("post-recovery resubmit %d: deduped=%v err=%v", i, res.Deduped, err)
		}
	}
	if d := s.Queue().Depth(); d != 0 {
		t.Fatalf("resubmission enqueued %d duplicate runs", d)
	}
}

// TestChaosResumeBitIdentical interrupts a real design job mid-run (graceful
// drain, checkpoints intact), restarts the server over the same directory,
// and requires the resumed result to be byte-for-byte the result of an
// uninterrupted run with the same spec.
func TestChaosResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real-runner chaos proof skipped in -short")
	}
	spec := JobSpec{Type: TypeDesign, Quick: true, Seed: 7}

	runToSuccess := func(t *testing.T, s *Server, id string) []byte {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			j, err := s.Queue().Get(id)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if j.State.Terminal() {
				if j.State != StateSucceeded {
					t.Fatalf("job = %s (%s), want succeeded", j.State, j.Error)
				}
				return j.Result
			}
			if time.Now().After(deadline) {
				t.Fatal("design job never finished")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Reference: one uninterrupted run.
	ref, err := New(Options{Dir: t.TempDir(), Workers: 1, Queue: QueueOptions{NoSync: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref.Start()
	refRes, err := ref.Queue().Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	start := time.Now()
	want := runToSuccess(t, ref, refRes.Job.ID)
	refRun := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	ref.Shutdown(ctx)
	cancel()

	// Interrupted: drain the fleet mid-run, then restart and resume.
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir, Workers: 1, Queue: QueueOptions{NoSync: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.Start()
	res, err := s1.Queue().Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(refRun / 2) // mid-run: half the uninterrupted run's length
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	err = s1.Shutdown(ctx)
	cancel()
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	j, err2 := OpenQueue(filepath.Join(dir, "queue"), QueueOptions{NoSync: true})
	if err2 != nil {
		t.Fatalf("inspect queue: %v", err2)
	}
	interrupted, _ := j.Get(res.Job.ID)
	j.Close()
	if interrupted == nil || interrupted.State.Terminal() {
		t.Skipf("drain landed after the run finished (state %v); nothing to resume", interrupted)
	}

	s2, err := New(Options{Dir: dir, Workers: 1, Queue: QueueOptions{NoSync: true}})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	s2.Start()
	got := runToSuccess(t, s2, res.Job.ID)
	if string(got) != string(want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n  resumed: %s\n  want:    %s", got, want)
	}
}

// TestChaosSegmentCorruptionBoundedLoss flips one byte inside a journal
// record: recovery must keep every record before the corruption, report the
// loss, and the queue must keep accepting work.
func TestChaosSegmentCorruptionBoundedLoss(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("OpenQueue: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, q, quickSpec("a"))
	}
	q.Close()

	// Bit-rot the opening brace of record 4 of 5. (A flipped byte inside a
	// string value would be absorbed — encoding/json replaces invalid UTF-8
	// rather than rejecting it — so structural damage is the detectable kind.)
	seg := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(data), "\n")
	offset := int64(len(lines[0]) + len(lines[1]) + len(lines[2]))
	if err := chaostest.CorruptByte(seg, offset, 0xFF); err != nil {
		t.Fatalf("CorruptByte: %v", err)
	}

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer q2.Close()
	rep := q2.Recovery()
	if rep.Queued != 3 {
		t.Fatalf("recovered %d jobs, want the 3 before the corrupted record", rep.Queued)
	}
	if len(rep.TailLosses) != 1 || rep.TailLosses[0].Line != 4 {
		t.Fatalf("losses = %+v, want one at line 4", rep.TailLosses)
	}
	// The queue is still serviceable after the amputation.
	j := mustSubmit(t, q2, quickSpec("post-rot"))
	if j.ID == "" {
		t.Fatal("submit after corruption recovery failed")
	}
}

// TestChaosInjectedPanicsQuarantine drives the serve layer with a chaostest
// injector that panics on every objective call: the job must land in
// quarantine, not loop forever.
func TestChaosInjectedPanicsQuarantine(t *testing.T) {
	inj := &chaostest.Injector{PanicEvery: 1}
	obj := inj.Wrap(func(x []float64) float64 { return x[0] })
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		v := obj([]float64{1})
		return json.RawMessage(fmt.Sprintf(`{"v":%g}`, v)), nil
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Retry: tinyRetry(4), MaxPanics: 2})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateQuarantined {
		t.Fatalf("state = %s, want quarantined after repeated injected panics", done.State)
	}
	if inj.Calls() != 2 {
		t.Fatalf("injector saw %d calls, want MaxPanics=2 then quarantine", inj.Calls())
	}
}

// TestChaosNaNObjectiveFailsCleanly: a runner whose objective returns NaN
// must fail the job with a diagnosable error, never hang or succeed.
func TestChaosNaNObjectiveFailsCleanly(t *testing.T) {
	inj := &chaostest.Injector{NaNEvery: 1}
	obj := inj.Wrap(func(x []float64) float64 { return x[0] })
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		if v := obj([]float64{1}); v != v {
			return nil, fmt.Errorf("objective returned NaN")
		}
		return json.RawMessage(`{}`), nil
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, Retry: tinyRetry(3)})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "NaN") {
		t.Fatalf("state=%s error=%q, want failed with NaN diagnosis", done.State, done.Error)
	}
}

// TestChaosClockSkewAdmissionInvariant hammers admission under a clock that
// jumps backwards repeatedly: the admitted count must never exceed the
// tokens genuinely available (burst plus forward progress only — backwards
// jumps grant nothing), and admission must keep working afterwards.
func TestChaosClockSkewAdmissionInvariant(t *testing.T) {
	base := time.UnixMilli(1_700_000_000_000)
	// 100 reads: every 3rd jumps back an hour, the others tick +100ms.
	var schedule []time.Duration
	forward := 0.0
	for i := 0; i < 100; i++ {
		if i%3 == 2 {
			schedule = append(schedule, -time.Hour)
		} else {
			schedule = append(schedule, 100*time.Millisecond)
			forward += 0.1
		}
	}
	clk := chaostest.NewSkewClock(base, schedule...)
	a := NewAdmission(map[string]TenantPolicy{"a": {RatePerSec: 2, Burst: 5}}, TenantPolicy{}, nil, clk.Now)

	admitted := 0
	for i := 0; i < 100; i++ {
		spec := quickSpec("a")
		if err := a.Admit(&spec); err == nil {
			admitted++
		}
	}
	// Upper bound: the burst plus rate * forward-only elapsed time. The
	// backwards jumps must not have minted tokens.
	maxTokens := 5 + int(2*forward) + 1
	if admitted > maxTokens {
		t.Fatalf("admitted %d jobs, want <= %d: backwards clock jumps minted tokens", admitted, maxTokens)
	}
	if admitted == 0 {
		t.Fatal("skewed clock starved admission entirely")
	}
}

// TestChaosDeadlineUnderSkewStillTerminates: a job whose RunController
// deadline is computed against a skewed clock must still terminate (the
// worker's context timeout is the backstop).
func TestChaosDeadlineUnderSkewStillTerminates(t *testing.T) {
	runner := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		ctl := resilience.NewController(resilience.ControllerOptions{
			Context:  ctx,
			Deadline: time.UnixMilli(1_700_000_000_000).Add(50 * time.Millisecond),
			// A frozen clock: the controller's own deadline never appears to
			// pass, simulating skew hiding the timeout.
			Clock: func() time.Time { return time.UnixMilli(1_700_000_000_000) },
		})
		for {
			if err := ctl.Check(); err != nil {
				return nil, err
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	})
	h := newFleetHarness(t, runner, FleetOptions{Workers: 1, DefaultTimeout: 200 * time.Millisecond})
	j := mustSubmit(t, h.q, quickSpec("a"))
	done := waitTerminal(t, h.q, j.ID)
	if done.State != StateFailed {
		t.Fatalf("state = %s, want failed via the worker timeout backstop", done.State)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gnsslna"
	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/extract"
	"gnsslna/internal/obs"
	"gnsslna/internal/obs/replay"
	"gnsslna/internal/optim"
	"gnsslna/internal/serve"
	"gnsslna/internal/vna"
)

// workload is one traffic shape. Every workload is a closed loop: each of
// its clients waits for an op's reply before sending the next.
type workload struct {
	name    string
	clients int
	// tailQ is the quantile tail_ms quotes; fixed per workload so the
	// metric keeps its meaning when a faster commit completes more ops.
	tailQ float64
	// refOps is how many ops per client every phase runs at least; at seed
	// 1 their outputs are compared with testdata/reference.json.
	refOps int
	// start sets the workload up, warm-up included. traced adds the
	// instrumentation whose cost trace_overhead reports.
	start func(e env, traced bool) (runner, error)
}

// env is what a workload's set-up needs from the run.
type env struct {
	seed int64
	// dir is a scratch directory owned by the run.
	dir string
}

// runner is a set-up workload.
type runner interface {
	// op runs op k of client c and returns its latency. A non-nil rec
	// receives the op's checked outputs for the reference comparison.
	op(c, k int, rec *record) (time.Duration, error)
	// close tears the set-up down and returns workload diagnostics.
	close() ([]metric, error)
}

// record is the output of one op that the reference pins: counts must
// match exactly, values within refTol relative.
type record struct {
	Counts map[string]int64   `json:"counts,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

func (r *record) count(name string, v int64) {
	if r.Counts == nil {
		r.Counts = map[string]int64{}
	}
	r.Counts[name] = v
}

func (r *record) value(name string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[name] = v
}

var workloads = []workload{
	{name: "eval-cold", clients: 1, tailQ: 0.99, refOps: 8, start: startEvalCold},
	{name: "design", clients: 1, tailQ: 0.95, refOps: 1, start: startDesign},
	{name: "extract", clients: 1, tailQ: 0.95, refOps: 5, start: startExtract},
	{name: "serve-repeat", clients: 2, tailQ: 0.95, refOps: 1, start: startServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Output ceilings. Quick extractions land at SRMSE 0.026-0.053 and DC
// RelRMSE 0.005-0.033 over the five model classes; a fit past these has
// failed.
const (
	maxSRMSE     = 0.15
	maxDCRelRMSE = 0.10
	// nfSlack absorbs rounding when the 50-ohm source is the optimum.
	nfSlack = 1e-9
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkEvaluation applies the per-design output checks: finite objectives,
// and at every point NF >= Fmin and NF >= 0 dB.
func checkEvaluation(ev core.Evaluation) error {
	names := core.ObjectiveNames()
	for i, o := range ev.Objectives() {
		if !finite(o) {
			return fmt.Errorf("objective %s = %v", names[i], o)
		}
	}
	for _, p := range ev.Points {
		if !(p.NFdB >= 0) || p.NFdB < p.FminDB-nfSlack {
			return fmt.Errorf("NF %v dB below Fmin %v dB or 0 at %g Hz", p.NFdB, p.FminDB, p.Freq)
		}
	}
	return nil
}

// checkDesign requires an optimizer output inside core.DesignBounds.
func checkDesign(x core.Design, gamma float64) error {
	if !finite(gamma) {
		return fmt.Errorf("gamma = %v", gamma)
	}
	for i, v := range x.Vector() {
		if !(v >= designLo[i] && v <= designHi[i]) {
			return fmt.Errorf("design component %d = %v outside [%v, %v]", i, v, designLo[i], designHi[i])
		}
	}
	return nil
}

// --- eval-cold -------------------------------------------------------------

// evalWarmups is the number of warm-up evaluations: enough to size the
// pools and fault in the code, on designs no measured op uses.
const evalWarmups = 2000

type evalCold struct {
	seed int64
	d    *core.Designer
}

func startEvalCold(e env, _ bool) (runner, error) {
	d := core.NewDesigner(core.NewBuilder(device.Golden()))
	for i := 0; i < evalWarmups; i++ {
		if _, err := d.Evaluate(designAt(e.seed, streamWarmup, i)); err != nil {
			return nil, fmt.Errorf("eval-cold warm-up: %w", err)
		}
	}
	return &evalCold{seed: e.seed, d: d}, nil
}

// input is the design of op k.
func (w *evalCold) input(k int) core.Design { return designAt(w.seed, streamMeasured, k) }

func (w *evalCold) op(_, k int, rec *record) (time.Duration, error) {
	x := w.input(k)
	t := time.Now()
	ev, err := w.d.Evaluate(x)
	lat := time.Since(t)
	if err != nil {
		return lat, err
	}
	if err := checkEvaluation(ev); err != nil {
		return lat, err
	}
	if rec != nil {
		rec.count("points", int64(len(ev.Points)))
		for i, o := range ev.Objectives() {
			rec.value(core.ObjectiveNames()[i], o)
		}
	}
	return lat, nil
}

func (w *evalCold) close() ([]metric, error) { return nil, nil }

// --- design ----------------------------------------------------------------

// quickExtract runs the measurement campaign and a quick three-step
// extraction, with the budgets `extract -quick` and the quick design flow
// use.
func quickExtract(seed int64, dc device.DCModel, o obs.Observer) (*vna.Dataset, extract.Result, error) {
	campaign := vna.DefaultCampaign(seed)
	campaign.Observer = o
	ds, err := vna.RunCampaign(device.Golden(), campaign)
	if err != nil {
		return nil, extract.Result{}, fmt.Errorf("campaign: %w", err)
	}
	res, err := extract.ThreeStep(ds, dc, extract.Config{
		Seed: seed, DCEvals: 6000, GlobalEvals: 2500, RefineIters: 20, Observer: o,
	})
	if err != nil {
		return nil, extract.Result{}, err
	}
	return ds, res, nil
}

type designFlow struct {
	seed       int64
	d          *core.Designer
	evals, ops int64
}

func startDesign(e env, _ bool) (runner, error) {
	_, ex, err := quickExtract(seedAt(e.seed, streamSetup, 0), device.NewAngelov(), nil)
	if err != nil {
		return nil, fmt.Errorf("design set-up: %w", err)
	}
	d := core.NewDesigner(core.NewBuilder(ex.Device))
	d.Spec.NPoints = 7
	w := &designFlow{seed: e.seed, d: d}
	if _, err := w.optimize(seedAt(e.seed, streamWarmup, 0)); err != nil {
		return nil, fmt.Errorf("design warm-up: %w", err)
	}
	return w, nil
}

// optimize is one quick goal-attainment run, as `lnaopt -quick` runs it.
func (w *designFlow) optimize(seed int64) (core.DesignResult, error) {
	return w.d.Optimize(&optim.AttainOptions{
		Seed: seed, GlobalEvals: 1500, PolishEvals: 900, Scope: "design.attain",
	})
}

// input is the optimizer seed of op k.
func (w *designFlow) input(k int) int64 { return seedAt(w.seed, streamMeasured, k) }

func (w *designFlow) op(_, k int, rec *record) (time.Duration, error) {
	s := w.input(k)
	t := time.Now()
	res, err := w.optimize(s)
	lat := time.Since(t)
	if err != nil {
		return lat, err
	}
	if err := checkDesign(res.Design, res.Gamma); err != nil {
		return lat, err
	}
	for _, ev := range []core.Evaluation{res.Eval, res.SnappedEval} {
		if err := checkEvaluation(ev); err != nil {
			return lat, err
		}
	}
	w.evals += int64(res.Evals)
	w.ops++
	if rec != nil {
		rec.count("evals", int64(res.Evals))
		rec.value("gamma", res.Gamma)
		rec.value("worst_nf_db", res.SnappedEval.WorstNFdB)
		rec.value("min_gt_db", res.SnappedEval.MinGTdB)
		for i, v := range res.Design.Vector() {
			rec.value(fmt.Sprintf("x%d", i), v)
		}
	}
	return lat, nil
}

func (w *designFlow) close() ([]metric, error) {
	if w.ops == 0 {
		return nil, nil
	}
	return []metric{{"core.evals_per_op", float64(w.evals) / float64(w.ops), "count"}}, nil
}

// --- extract ---------------------------------------------------------------

type extraction struct{ seed int64 }

func startExtract(e env, _ bool) (runner, error) {
	w := &extraction{seed: e.seed}
	if _, _, err := quickExtract(seedAt(e.seed, streamWarmup, 0), device.NewAngelov(), nil); err != nil {
		return nil, fmt.Errorf("extract warm-up: %w", err)
	}
	return w, nil
}

// input is the campaign and extraction seed of op k.
func (w *extraction) input(k int) int64 { return seedAt(w.seed, streamMeasured, k) }

func (w *extraction) op(_, k int, rec *record) (time.Duration, error) {
	s := w.input(k)
	models := device.AllModels()
	dc := models[k%len(models)]
	t := time.Now()
	_, res, err := quickExtract(s, dc, nil)
	lat := time.Since(t)
	if err != nil {
		return lat, err
	}
	if res.Device == nil || !(res.SRMSE < maxSRMSE) || !(res.DC.RelRMSE < maxDCRelRMSE) {
		return lat, fmt.Errorf("%s extraction: SRMSE %v, DC RelRMSE %v", dc.Name(), res.SRMSE, res.DC.RelRMSE)
	}
	if rec != nil {
		rec.count("s_evals", int64(res.SEvals))
		rec.count("dc_evals", int64(res.DC.Evals))
		rec.value("s_rmse", res.SRMSE)
		rec.value("dc_rel_rmse", res.DC.RelRMSE)
	}
	return lat, nil
}

func (w *extraction) close() ([]metric, error) { return nil, nil }

// --- serve-repeat ----------------------------------------------------------

const (
	// servePool is the number of distinct job seeds. With ~200 jobs per
	// run most submissions repeat an earlier spec, which is the traffic
	// property job-level reuse would exploit.
	servePool = 32
	pollEvery = 20 * time.Millisecond
	jobLimit  = 60 * time.Second
)

type serveRepeat struct {
	seed    int64
	dir     string
	journal string
	js      *gnsslna.JobServer
	client  *http.Client

	mu sync.Mutex
	// results holds the first result document of each seed.
	results map[int64][]byte
	// submit, queueWait and run are per-job layer times in ms.
	submit, queueWait, run []float64
}

func startServe(e env, traced bool) (runner, error) {
	dir, err := os.MkdirTemp(e.dir, "serve-")
	if err != nil {
		return nil, err
	}
	w := &serveRepeat{
		seed: e.seed, dir: dir, results: map[int64][]byte{},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	if traced {
		w.journal = filepath.Join(dir, "journal.jsonl")
	}
	w.js, err = gnsslna.StartJobServer(gnsslna.JobServerOptions{
		Dir: filepath.Join(dir, "data"), Workers: 2, JournalPath: w.journal,
	})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	if _, err := w.job(0, seedAt(e.seed, streamWarmup, 0)); err != nil {
		w.close()
		return nil, fmt.Errorf("serve-repeat warm-up: %w", err)
	}
	w.submit, w.queueWait, w.run = nil, nil, nil
	return w, nil
}

// poolSeed picks the job seed of op k of client c, uniformly from the pool.
func poolSeed(seed int64, c, k int) int64 {
	return seedAt(seed, streamPool, int(mix(seed, streamPick, c, k)%servePool))
}

func (w *serveRepeat) op(c, k int, rec *record) (time.Duration, error) {
	s := poolSeed(w.seed, c, k)
	job, err := w.job(c, s)
	if err != nil {
		return 0, err
	}
	var doc serve.DesignResultDoc
	if err := json.Unmarshal(job.Result, &doc); err != nil {
		return 0, fmt.Errorf("job %s result: %w", job.ID, err)
	}
	if err := checkDesign(doc.Design, doc.Gamma); err != nil {
		return 0, fmt.Errorf("job %s: %w", job.ID, err)
	}
	for _, v := range []float64{doc.WorstNFdB, doc.MinGTdB, doc.StabMargin, doc.IdsA, doc.PdcW} {
		if !finite(v) {
			return 0, fmt.Errorf("job %s: non-finite result %s", job.ID, job.Result)
		}
	}
	w.mu.Lock()
	prev, seen := w.results[s]
	if !seen {
		w.results[s] = job.Result
	}
	w.mu.Unlock()
	if seen && !bytes.Equal(prev, job.Result) {
		return 0, fmt.Errorf("job %s: seed %d returned a different result than before", job.ID, s)
	}
	if rec != nil {
		rec.count("seed", s)
		rec.value("gamma", doc.Gamma)
		rec.value("worst_nf_db", doc.WorstNFdB)
		rec.value("min_gt_db", doc.MinGTdB)
		rec.value("stab_margin", doc.StabMargin)
	}
	return time.Duration(job.lat * float64(time.Millisecond)), nil
}

// servedJob is a finished job and its latency: client send to the
// server-stamped done_ms, which the 20 ms poll does not quantize.
type servedJob struct {
	serve.Job
	lat float64
}

// job submits one quick design job for client c and polls it to a terminal
// state. Any state but succeeded is an error.
func (w *serveRepeat) job(c int, seed int64) (servedJob, error) {
	body := fmt.Sprintf(`{"type":"design","tenant":"bench-%d","seed":%d,"quick":true}`, c, seed)
	send := time.Now()
	var job serve.Job
	if err := w.call(http.MethodPost, "/jobs", body, &job); err != nil {
		return servedJob{}, err
	}
	submitted := time.Since(send)
	for deadline := send.Add(jobLimit); !job.State.Terminal(); {
		if time.Now().After(deadline) {
			return servedJob{}, fmt.Errorf("job %s still %s after %v", job.ID, job.State, jobLimit)
		}
		time.Sleep(pollEvery)
		if err := w.call(http.MethodGet, "/jobs/"+job.ID, "", &job); err != nil {
			return servedJob{}, err
		}
	}
	if job.State != serve.StateSucceeded {
		return servedJob{}, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	w.mu.Lock()
	w.submit = append(w.submit, float64(submitted)/float64(time.Millisecond))
	w.queueWait = append(w.queueWait, float64(job.StartedMS-job.SubmittedMS))
	w.run = append(w.run, float64(job.DoneMS-job.StartedMS))
	w.mu.Unlock()
	sendMS := float64(send.UnixNano()) / 1e6
	return servedJob{Job: job, lat: float64(job.DoneMS) - sendMS}, nil
}

// call sends one API request and decodes the JSON reply; a non-2xx status
// is an error.
func (w *serveRepeat) call(method, path, body string, into any) error {
	req, err := http.NewRequest(method, w.js.URL()+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, into)
}

func (w *serveRepeat) close() ([]metric, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.js.Shutdown(ctx)
	w.client.CloseIdleConnections()
	w.mu.Lock()
	diags := []metric{
		{"serve.submit_ms", median(w.submit), "ms"},
		{"serve.queue_wait_ms", median(w.queueWait), "ms"},
		{"serve.run_ms", median(w.run), "ms"},
	}
	w.mu.Unlock()
	if err == nil && w.journal != "" {
		var stages []metric
		stages, err = journalStages(w.journal)
		diags = append(diags, stages...)
	}
	return diags, errors.Join(err, os.RemoveAll(w.dir))
}

// journalStages reads the per-attempt extraction and design stage times
// from the job journal the server writes.
func journalStages(path string) ([]metric, error) {
	run, err := replay.ParseFile(path)
	if err != nil {
		return nil, err
	}
	var attempts int
	var extractMS, designMS float64
	for _, s := range run.ScopeStats() {
		switch {
		case s.Scope == "job.attempt":
			attempts = s.Spans
		case s.Scope == "vna.campaign", strings.HasPrefix(s.Scope, "extract.step") && s.Spans > 0:
			extractMS += s.WallMs
		case s.Scope == "design.attain":
			designMS += s.WallMs
		}
	}
	if attempts == 0 {
		return nil, fmt.Errorf("journal %s: no job attempts", path)
	}
	n := float64(attempts)
	return []metric{
		{"serve.stage_extract_ms", extractMS / n, "ms"},
		{"serve.stage_design_ms", designMS / n, "ms"},
	}, nil
}

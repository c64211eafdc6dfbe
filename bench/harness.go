package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one measuring process hands back: the metrics of its run
// plus the op tally.
type report struct {
	SetupS      float64  `json:"setup_s"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Problems    []string `json:"problems,omitempty"`
	Metrics     []metric `json:"metrics,omitempty"`
	Diagnostics []metric `json:"diagnostics,omitempty"`
}

// phase is one timed closed-loop run of a set-up workload.
type phase struct {
	hist      histogram
	wall      time.Duration
	attempted int
	failed    int
	problems  []string
	// records holds, per client, the outputs of the ops numbered below
	// refOps.
	records [][]record
	// next is, per client, the first op number the phase did not run.
	next []int
}

// maxProblems bounds the failure messages a run keeps.
const maxProblems = 5

// runPhase drives the workload's clients until dur has passed and each has
// run at least refOps ops, starting client c at op first[c].
func runPhase(w workload, r runner, dur time.Duration, first []int) *phase {
	type client struct {
		hist              histogram
		attempted, failed int
		problems          []string
		records           []record
		next              int
	}
	cs := make([]client, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &cs[c]
			for k := first[c]; ; k++ {
				if k-first[c] >= w.refOps && !time.Now().Before(deadline) {
					cl.next = k
					return
				}
				var rec *record
				if k < w.refOps {
					rec = new(record)
				}
				lat, err := r.op(c, k, rec)
				cl.attempted++
				if err != nil {
					cl.failed++
					if len(cl.problems) < maxProblems {
						cl.problems = append(cl.problems, fmt.Sprintf("%s op %d/%d: %v", w.name, c, k, err))
					}
					continue
				}
				cl.hist.add(lat)
				if rec != nil {
					cl.records = append(cl.records, *rec)
				}
			}
		}(c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start)}
	for i := range cs {
		cl := &cs[i]
		p.hist.merge(&cl.hist)
		p.attempted += cl.attempted
		p.failed += cl.failed
		p.problems = append(p.problems, cl.problems...)
		p.records = append(p.records, cl.records)
		p.next = append(p.next, cl.next)
	}
	return p
}

// endToEnd returns the phase's latency and throughput metrics. Typical
// latency is quoted at the lower quartile, not the median: contention from
// other tenants of the host slows a varying share of each run's ops by up
// to 40%, which moves the median between the fast and the slow mode from
// run to run while the lower quartile stays put (README.md, "Noise").
func (p *phase) endToEnd(w workload) []metric {
	return []metric{
		{"p25_ms", p.hist.quantileMS(0.25), "ms"},
		{"tail_ms", p.hist.quantileMS(w.tailQ), "ms"},
		{"ops_per_s", float64(p.hist.n) / p.wall.Seconds(), "1/s"},
	}
}

// diagnostics are printed beside the metrics; BENCHMARK.json does not
// declare or bound them.
func (p *phase) diagnostics(w workload) []metric {
	d := []metric{
		{"p50_ms", p.hist.quantileMS(0.5), "ms"},
		{"ops", float64(p.hist.n), "count"},
		{"tail_quantile", w.tailQ, "ratio"},
		{"tail_samples_beyond", float64(beyond(p.hist.n, w.tailQ)), "count"},
		{"failed_ratio", float64(p.failed) / float64(max(p.attempted, 1)), "ratio"},
	}
	if beyond(p.hist.n, 0.9999) >= 10 {
		// GC pauses make the far tail unrepeatable: printed, never bounded.
		d = append(d, metric{"p99.99_ms", p.hist.quantileMS(0.9999), "ms"})
	}
	return d
}

// tally folds a phase's op counts, and with checkRef its reference check,
// into the report.
func (rep *report) tally(w workload, p *phase, checkRef bool) {
	rep.Attempted += p.attempted
	rep.Failed += p.failed
	rep.Problems = append(rep.Problems, p.problems...)
	if !checkRef {
		return
	}
	for _, msg := range checkReference(w, p.records) {
		rep.Failed++
		if len(rep.Problems) < maxProblems {
			rep.Problems = append(rep.Problems, msg)
		}
	}
}

// runUntraced sets the workload up, measures it for dur and checks every
// output. The set-up time runs from process start to the first timed op.
func runUntraced(w workload, e env, dur time.Duration) (*report, error) {
	r, err := w.start(e, false)
	if err != nil {
		return nil, err
	}
	rep := &report{SetupS: time.Since(processStart).Seconds()}
	p := runPhase(w, r, dur, make([]int, w.clients))
	diags, err := r.close()
	if err != nil {
		return nil, err
	}
	rep.tally(w, p, e.seed == 1)
	rep.Metrics = p.endToEnd(w)
	rep.Diagnostics = append(p.diagnostics(w), diags...)
	return rep, nil
}

// runSetup only sets the workload up and tears it down again.
func runSetup(w workload, e env) (*report, error) {
	r, err := w.start(e, false)
	if err != nil {
		return nil, err
	}
	rep := &report{SetupS: time.Since(processStart).Seconds()}
	_, err = r.close()
	return rep, err
}

// probeSize scales the traced run's layer probes.
type probeSize struct{ ladderDesigns, extractions int }

var fullProbes = probeSize{ladderDesigns: 3000, extractions: 3}

// runTraced measures the workload untraced for dur/2, then sets it up again
// traced and measures it for dur/2 under a CPU profile, on the ops that
// follow. It reports the per-layer metrics: the traced phase's counters and
// CPU attribution, and the layer probes.
func runTraced(w workload, e env, dur time.Duration, size probeSize) (*report, error) {
	r, err := w.start(e, false)
	if err != nil {
		return nil, err
	}
	plain := runPhase(w, r, dur/2, make([]int, w.clients))
	if _, err := r.close(); err != nil {
		return nil, err
	}

	if r, err = w.start(e, true); err != nil {
		return nil, err
	}
	traced, counters, profErr := profiled(w, r, dur/2, plain.next, filepath.Join(e.dir, "cpu.pprof"))
	diags, err := r.close()
	if err = errors.Join(profErr, err); err != nil {
		return nil, err
	}

	rep := &report{}
	rep.tally(w, plain, e.seed == 1)
	rep.tally(w, traced, false)
	cpu, err := cpuShares(filepath.Join(e.dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	lad, err := runLadder(e.seed, size.ladderDesigns)
	if err != nil {
		return nil, err
	}
	ex, err := runExtractionProbe(e.seed, size.extractions)
	if err != nil {
		return nil, err
	}
	rep.Metrics = append(append(append(lad.metrics(), ex...), cpu...), counters...)
	rep.Metrics = append(rep.Metrics, metric{"trace_overhead",
		traced.hist.quantileMS(0.25)/plain.hist.quantileMS(0.25) - 1, "ratio"})
	rep.Diagnostics = append(append(plain.diagnostics(w),
		metric{"traced_p25_ms", traced.hist.quantileMS(0.25), "ms"}), diags...)
	return rep, nil
}

// profiled runs a phase under the CPU profiler, writing the profile to
// path, and returns the runtime and memo counters over it.
func profiled(w workload, r runner, dur time.Duration, first []int, path string) (*phase, []metric, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	before := takeSnapshot()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	p := runPhase(w, r, dur, first)
	pprof.StopCPUProfile()
	counters := takeSnapshot().since(before, p.hist.n)
	return p, counters, f.Close()
}

//go:embed testdata/reference.json
var referenceJSON []byte

// refTol is the relative tolerance on reference values.
const refTol = 1e-9

// checkReference compares the first ops' outputs at seed 1 with the
// committed reference and returns one message per mismatch.
func checkReference(w workload, got [][]record) []string {
	var ref map[string][][]record
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return []string{fmt.Sprintf("reference: %v", err)}
	}
	want, ok := ref[w.name]
	if !ok {
		return []string{fmt.Sprintf("reference: no entry for %s", w.name)}
	}
	var msgs []string
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%s reference: %d clients, want %d", w.name, len(got), len(want))}
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			msgs = append(msgs, fmt.Sprintf("%s reference: client %d checked %d ops, want %d", w.name, c, len(got[c]), len(want[c])))
			continue
		}
		for k, rw := range want[c] {
			rg := got[c][k]
			for name, v := range rw.Counts {
				if g, ok := rg.Counts[name]; !ok || g != v {
					msgs = append(msgs, fmt.Sprintf("%s reference: op %d/%d %s = %d, want %d", w.name, c, k, name, g, v))
				}
			}
			for name, v := range rw.Values {
				g, ok := rg.Values[name]
				if !ok || math.Abs(g-v) > refTol*math.Max(math.Abs(g), math.Abs(v)) {
					msgs = append(msgs, fmt.Sprintf("%s reference: op %d/%d %s = %v, want %v", w.name, c, k, name, g, v))
				}
			}
			if len(rg.Counts) != len(rw.Counts) || len(rg.Values) != len(rw.Values) {
				msgs = append(msgs, fmt.Sprintf("%s reference: op %d/%d records different outputs", w.name, c, k))
			}
		}
	}
	return msgs
}

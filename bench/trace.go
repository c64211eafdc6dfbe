package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/extract"
	"gnsslna/internal/noise"
	"gnsslna/internal/obs"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// snapshot holds the process counters a traced phase is measured by.
type snapshot struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
	memo            core.MemoStats
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	return snapshot{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: cpu[0].Value.Float64(), totalCPU: cpu[1].Value.Float64(),
		memo: core.DefaultEvalMemo().Stats(),
	}
}

// since returns the per-op allocation, GC and evaluation-memo counters
// between two snapshots that enclose ops successful ops.
func (s snapshot) since(b snapshot, ops int) []metric {
	n := float64(max(ops, 1))
	hits := float64(s.memo.Hits - b.memo.Hits)
	lookups := hits + float64(s.memo.Misses-b.memo.Misses)
	return []metric{
		{"allocs_per_op", float64(s.mallocs-b.mallocs) / n, "count"},
		{"bytes_per_op", float64(s.bytes-b.bytes) / n, "B"},
		{"runtime.gc_cpu_fraction", (s.gcCPU - b.gcCPU) / max(s.totalCPU-b.totalCPU, 1e-9), "ratio"},
		{"core.memo_hit_ratio", hits / max(lookups, 1), "ratio"},
		{"core.memo_evictions", float64(s.memo.Evictions - b.memo.Evictions), "count"},
	}
}

// --- the cold-evaluation ladder --------------------------------------------

// ladder holds the median ns per design of each layer of one cold
// Designer.Evaluate, each timed by calling that layer's public function on
// the same design (default spec: 11 in-band and 9 stability points).
type ladder struct {
	build, buildAllocs, biasState, embedNoisy, embedABCD float64
	compile, noisy, abcd, metricsBand, evaluate          float64
}

// metrics derives the residual layers from the timed ones: the cascade and
// metric reduction inside MetricsBandInto, and what Evaluate spends beyond
// Build and the in-band sweep (stability scan, aggregation, memo).
// coverage is the share of Evaluate the timed calls account for.
func (l ladder) metrics() []metric {
	cascade := l.metricsBand - l.biasState - l.embedNoisy - l.compile - l.noisy
	rest := l.evaluate - l.build - l.metricsBand
	covered := l.build + l.metricsBand + l.biasState + l.embedABCD + l.abcd
	return []metric{
		{"core.build_ns", l.build, "ns"},
		{"core.build_allocs", l.buildAllocs, "count"},
		{"device.bias_state_ns", l.biasState, "ns"},
		{"device.embed_noisy_ns", l.embedNoisy, "ns"},
		{"device.embed_abcd_ns", l.embedABCD, "ns"},
		{"rfpassive.compile_ns", l.compile, "ns"},
		{"rfpassive.noisy_ns", l.noisy, "ns"},
		{"rfpassive.abcd_ns", l.abcd, "ns"},
		{"core.metrics_band_ns", l.metricsBand, "ns"},
		{"core.cascade_metrics_ns", cascade, "ns"},
		{"core.evaluate_ns", l.evaluate, "ns"},
		{"core.evaluate_rest_ns", rest, "ns"},
		{"ladder.coverage", covered / l.evaluate, "ratio"},
	}
}

// runLadder times the layers on n probe designs.
func runLadder(seed int64, n int) (ladder, error) {
	d := core.NewDesigner(core.NewBuilder(device.Golden()))
	freqs, stab := d.SweepGrids()
	xs := make([]core.Design, n)
	for i := range xs {
		xs[i] = designAt(seed, streamProbe, i)
	}
	const (
		build = iota
		bias
		embedNoisy
		embedABCD
		compile
		noisy
		abcd
		metricsBand
		evaluate
		layers
	)
	var ns [layers][]float64
	for i := range ns {
		ns[i] = make([]float64, 0, n)
	}
	tp := make([]noise.TwoPort, len(freqs))
	mats := make([]twoport.Mat2, len(stab))
	pm := make([]core.PointMetrics, len(freqs))
	var t time.Time
	lap := func(layer int) {
		ns[layer] = append(ns[layer], float64(time.Since(t)))
		t = time.Now()
	}
	for _, x := range xs {
		t = time.Now()
		amp, err := d.Builder.Build(x)
		if err != nil {
			return ladder{}, err
		}
		lap(build)
		st := amp.Dev.BandStateAt(amp.Bias)
		lap(bias)
		for _, f := range freqs {
			if _, err := amp.Dev.NoisyAtState(st, amp.Bias, f); err != nil {
				return ladder{}, err
			}
		}
		lap(embedNoisy)
		for _, f := range stab {
			if _, err := amp.Dev.ABCDAtState(st, f); err != nil {
				return ladder{}, err
			}
		}
		lap(embedABCD)
		ccIn, ccOut := rfpassive.CompileChain(amp.Input), rfpassive.CompileChain(amp.Output)
		lap(compile)
		ccIn.NoisyBand(tp, freqs)
		ccOut.NoisyBand(tp, freqs)
		lap(noisy)
		ccIn.ABCDBand(mats, stab)
		ccOut.ABCDBand(mats, stab)
		lap(abcd)
		if err := amp.MetricsBandInto(new(core.BandWorkspace), pm, freqs, d.Z0); err != nil {
			return ladder{}, err
		}
		lap(metricsBand)
		if _, err := d.Evaluate(x); err != nil {
			return ladder{}, err
		}
		lap(evaluate)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, x := range xs {
		if _, err := d.Builder.Build(x); err != nil {
			return ladder{}, err
		}
	}
	runtime.ReadMemStats(&after)

	return ladder{
		build: median(ns[build]), buildAllocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		biasState: median(ns[bias]), embedNoisy: median(ns[embedNoisy]), embedABCD: median(ns[embedABCD]),
		compile: median(ns[compile]), noisy: median(ns[noisy]), abcd: median(ns[abcd]),
		metricsBand: median(ns[metricsBand]), evaluate: median(ns[evaluate]),
	}, nil
}

// --- the extraction probe --------------------------------------------------

// sresidualReps is how often each probe times the S-parameter residual.
const sresidualReps = 15

// runExtractionProbe runs n quick Angelov extractions on probe seeds and
// reports the median step times ThreeStep emits through its Observer, the
// median cost of one S-parameter residual at the extracted device, and the
// evaluation counts.
func runExtractionProbe(seed int64, n int) ([]metric, error) {
	steps := []struct{ scope, name string }{
		{"extract.step1.coldfet", "extract.step1_ms"},
		{"extract.step2.dcfit", "extract.step2_dc_ms"},
		{"extract.step2.sfit", "extract.step2_rf_ms"},
		{"extract.step3", "extract.step3_ms"},
		{"vna.campaign", "vna.campaign_ms"},
	}
	spans := map[string][]float64{}
	var sres, sEvals, dcEvals []float64
	for i := 0; i < n; i++ {
		o := obs.Func(func(e obs.Event) {
			if e.Kind != obs.KindSpanEnd {
				return
			}
			spans[e.Scope] = append(spans[e.Scope], e.Value)
			if e.Scope == "extract.step2.dcfit" {
				dcEvals = append(dcEvals, float64(e.Evals))
			}
		})
		ds, res, err := quickExtract(seedAt(seed, streamProbe, i), device.NewAngelov(), o)
		if err != nil {
			return nil, fmt.Errorf("extraction probe: %w", err)
		}
		sEvals = append(sEvals, float64(res.SEvals))
		var reps []float64
		for r := 0; r < sresidualReps; r++ {
			t := time.Now()
			if _, err := extract.SRMSEOfDevice(res.Device, ds); err != nil {
				return nil, fmt.Errorf("extraction probe: %w", err)
			}
			reps = append(reps, float64(time.Since(t))/1e3)
		}
		sres = append(sres, median(reps))
	}
	var out []metric
	for _, s := range steps {
		if len(spans[s.scope]) != n {
			return nil, fmt.Errorf("extraction probe: %d %s spans, want %d", len(spans[s.scope]), s.scope, n)
		}
		out = append(out, metric{s.name, median(spans[s.scope]), "ms"})
	}
	return append(out,
		metric{"extract.sresidual_us", median(sres), "us"},
		metric{"extract.s_evals_per_op", median(sEvals), "count"},
		metric{"extract.dc_evals_per_op", median(dcEvals), "count"},
	), nil
}

// --- CPU attribution -------------------------------------------------------

// cpuModules are the repo modules CPU samples are charged to. Samples whose
// innermost repo frame is in any other repo package go to cpu.other, and
// samples with no repo frame (GC, scheduler, net/http, syscalls) to
// cpu.runtime.
var cpuModules = []string{
	"core", "device", "rfpassive", "twoport", "noise", "mathx",
	"optim", "extract", "vna", "serve", "experiments",
}

// cpuShares attributes a CPU profile with `go tool pprof -traces`.
func cpuShares(profile string) ([]metric, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return attribute(&out)
}

// attribute parses `pprof -traces` output: blocks separated by dashed
// lines, each holding optional label lines, then the sample value and the
// innermost frame on one line, then the callers one per line.
func attribute(r io.Reader) ([]metric, error) {
	weights := map[string]float64{}
	var total float64
	inBlock, haveValue, decided := false, false, false
	var value float64
	bucket := ""
	flush := func() {
		if haveValue {
			if !decided {
				bucket = "runtime"
			}
			weights[bucket] += value
			total += value
		}
		haveValue, decided, bucket = false, false, ""
	}
	frame := func(name string) {
		if decided {
			return
		}
		if m, ok := moduleOf(name); ok {
			bucket, decided = m, true
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		if !haveValue {
			// Label lines ("phase:  optim") precede the value line.
			if v, ok := parseSampleValue(fields[0]); ok && len(fields) >= 2 {
				value, haveValue = v, true
				frame(fields[1])
			}
			continue
		}
		frame(fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total <= 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	var out []metric
	for _, m := range append(append([]string(nil), cpuModules...), "other", "runtime") {
		out = append(out, metric{"cpu." + m, weights[m] / total, "ratio"})
	}
	return out, nil
}

// moduleOf names the CPU bucket of a repo frame; ok is false for frames
// outside the repo. The benchmark's own package main counts as repo code.
func moduleOf(frame string) (module string, ok bool) {
	const internal = "gnsslna/internal/"
	switch {
	case strings.HasPrefix(frame, internal):
		rest := frame[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range cpuModules {
			if rest == m {
				return m, true
			}
		}
		return "other", true
	case strings.HasPrefix(frame, "gnsslna."), strings.HasPrefix(frame, "gnsslna/"), strings.HasPrefix(frame, "main."):
		return "other", true
	}
	return "", false
}

// parseSampleValue reads a pprof time value such as "10ms" or "1.50s" as ns.
func parseSampleValue(tok string) (float64, bool) {
	units := []struct {
		suffix string
		ns     float64
	}{{"mins", 60e9}, {"hrs", 3600e9}, {"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(tok, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.ns, err == nil && v >= 0
		}
	}
	return 0, false
}

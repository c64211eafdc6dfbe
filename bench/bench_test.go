package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"gnsslna/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/reference.json from the seed-1 outputs")

// TestWorkloadsAtSeed1 runs every workload in-process for its reference ops
// at seed 1 and compares their outputs with testdata/reference.json.
func TestWorkloadsAtSeed1(t *testing.T) {
	ref := map[string][][]record{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.start(env{seed: 1, dir: t.TempDir()}, false)
			if err != nil {
				t.Fatal(err)
			}
			p := runPhase(w, r, 0, make([]int, w.clients))
			if _, err := r.close(); err != nil {
				t.Fatal(err)
			}
			if p.failed > 0 || p.attempted != w.clients*w.refOps {
				t.Fatalf("%d of %d ops failed, want %d ops: %v", p.failed, p.attempted, w.clients*w.refOps, p.problems)
			}
			ref[w.name] = p.records
			if msgs := checkReference(w, p.records); !*update && len(msgs) > 0 {
				t.Errorf("outputs differ from the reference (rerun with -update if intended):\n%s", strings.Join(msgs, "\n"))
			}
		})
	}
	if *update {
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/reference.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("%s metrics %v, BENCHMARK.json declares %v", what, got, want)
	}
}

// TestRunsReportTheDeclaredMetrics runs each workload untraced and traced at
// a tiny scale and checks the reports against BENCHMARK.json and the traced
// run's own invariants.
func TestRunsReportTheDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := env{seed: 3, dir: t.TempDir()}
			rep, err := runUntraced(w, e, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed > 0 {
				t.Fatalf("untraced: %v", rep.Problems)
			}
			// drive adds the two metrics measured across processes.
			sameNames(t, "untraced", append(names(rep.Metrics), "setup_s", "max_rss_mb"), endToEnd)

			rep, err = runTraced(w, e, 400*time.Millisecond, probeSize{ladderDesigns: 200, extractions: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed > 0 {
				t.Fatalf("traced: %v", rep.Problems)
			}
			sameNames(t, "traced", names(rep.Metrics), perLayer)
			var cpu float64
			for _, m := range rep.Metrics {
				if strings.HasPrefix(m.Name, "cpu.") {
					cpu += m.Value
				}
				if !finite(m.Value) {
					t.Errorf("%s = %v", m.Name, m.Value)
				}
			}
			if math.Abs(cpu-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v", cpu)
			}
		})
	}
}

// TestMeasuredInputsDoNotRepeat fails if a measured input of eval-cold,
// design or extract repeats, or coincides with a warm-up, set-up or probe
// input, which would let a cache serve it.
func TestMeasuredInputsDoNotRepeat(t *testing.T) {
	for _, seed := range []int64{1, 2, 987654321} {
		designs := map[core.Design]string{}
		addDesign := func(x core.Design, what string) {
			if prev, ok := designs[x]; ok {
				t.Fatalf("seed %d: %s design %+v repeats a %s design", seed, what, x, prev)
			}
			designs[x] = what
		}
		ec := &evalCold{seed: seed}
		for k := 0; k < 200000; k++ {
			addDesign(ec.input(k), "measured")
		}
		for i := 0; i < evalWarmups; i++ {
			addDesign(designAt(seed, streamWarmup, i), "warm-up")
		}
		for i := 0; i < fullProbes.ladderDesigns; i++ {
			addDesign(designAt(seed, streamProbe, i), "probe")
		}

		for _, w := range []struct {
			name  string
			input func(k int) int64
		}{
			{"design", (&designFlow{seed: seed}).input},
			{"extract", (&extraction{seed: seed}).input},
		} {
			seeds := map[int64]string{}
			addSeed := func(s int64, what string) {
				if prev, ok := seeds[s]; ok {
					t.Fatalf("seed %d: %s %s pipeline seed %d repeats a %s seed", seed, w.name, what, s, prev)
				}
				seeds[s] = what
			}
			for k := 0; k < 20000; k++ {
				addSeed(w.input(k), "measured")
			}
			addSeed(seedAt(seed, streamWarmup, 0), "warm-up")
			addSeed(seedAt(seed, streamSetup, 0), "set-up")
			for i := 0; i < fullProbes.extractions; i++ {
				addSeed(seedAt(seed, streamProbe, i), "probe")
			}
		}
		// serve-repeat repeats by design, but only among its pool: the
		// warm-up job must not prime a measured spec.
		for i := 0; i < servePool; i++ {
			if s := seedAt(seed, streamPool, i); s == seedAt(seed, streamWarmup, 0) {
				t.Fatalf("seed %d: serve pool seed %d is the warm-up seed", seed, s)
			}
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	var h histogram
	for v := 100; v >= 1; v-- {
		h.add(time.Duration(v))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.001, 1}, {0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := h.quantileMS(c.q) * 1e6; got != c.want {
			t.Errorf("q=%v: %v ns, want %v", c.q, got, c.want)
		}
	}
	if got := new(histogram).quantileMS(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram median %v, want NaN", got)
	}
	// Beyond the exact range a bucket is within 2^-subBits of its values.
	for _, v := range []uint64{4095, 4096, 8191, 8192, 12345, 38_000, 99_999_999, 1 << 40} {
		mid := bucketValue(bucketOf(v))
		if rel := math.Abs(mid-float64(v)) / float64(v); rel > 1.0/(1<<subBits) {
			t.Errorf("%d ns lands in a bucket valued %v (%.2g relative)", v, mid, rel)
		}
	}
}

// TestTailRule pins the tail quantile of each workload and checks that it
// leaves at least ten samples beyond it at the op counts the workloads
// reach in a run (about 200 for the slow workloads, hundreds of thousands
// for eval-cold).
func TestTailRule(t *testing.T) {
	if got := beyond(200, 0.95); got != 10 {
		t.Errorf("200 ops leave %d beyond p95, want 10", got)
	}
	if got := beyond(200, 0.99); got != 2 {
		t.Errorf("200 ops leave %d beyond p99, want 2", got)
	}
	for _, w := range workloads {
		n, want := 200, 0.95
		if w.name == "eval-cold" {
			n, want = 100000, 0.99
		}
		if w.tailQ != want {
			t.Errorf("%s quotes tail_ms at q=%v, want %v", w.name, w.tailQ, want)
		}
		if got := beyond(n, w.tailQ); got < 10 {
			t.Errorf("%s: %d ops leave %d samples beyond the tail", w.name, n, got)
		}
	}
}

func TestAttribution(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.device": 0.3, "cpu.optim": 0.2, "cpu.rfpassive": 0.1,
		"cpu.other": 0.15, "cpu.runtime": 0.25,
	}
	var sum float64
	for _, m := range ms {
		sum += m.Value
		if math.Abs(m.Value-want[m.Name]) > 1e-12 {
			t.Errorf("%s = %v, want %v", m.Name, m.Value, want[m.Name])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := attribute(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("a profile without samples parsed")
	}
}

func TestLadderArithmetic(t *testing.T) {
	l := ladder{
		build: 10, buildAllocs: 40, biasState: 5, embedNoisy: 10, embedABCD: 4,
		compile: 5, noisy: 10, abcd: 6, metricsBand: 50, evaluate: 100,
	}
	want := map[string]float64{
		"core.cascade_metrics_ns": 50 - 5 - 10 - 5 - 10,
		"core.evaluate_rest_ns":   100 - 10 - 50,
		"ladder.coverage":         (10 + 50 + 5 + 4 + 6) / 100.0,
		"core.build_allocs":       40,
		"core.evaluate_ns":        100,
	}
	got := map[string]float64{}
	for _, m := range l.metrics() {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

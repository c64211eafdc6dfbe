package export

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"gnsslna/internal/obs"
)

func render(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, reg); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"design.attain.de.ms", "design_attain_de_ms"},
		{"already_legal:name", "already_legal:name"},
		{"9starts.with.digit", "_9starts_with_digit"},
		{"sp ace-dash/slash", "sp_ace_dash_slash"},
		{"", "_"},
		{"ünïcode", "_n_code"},
	}
	for _, c := range cases {
		if got := SanitizeName(c.in); got != c.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := EscapeLabel(in); got != want {
		t.Fatalf("EscapeLabel = %q, want %q", got, want)
	}
}

func TestWritePrometheusCounterAndGauge(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("design.attain.evals").Add(42)
	reg.Gauge("design.attain.best").Set(-0.125)
	out := render(t, reg)

	for _, want := range []string{
		"# TYPE gnsslna_design_attain_evals_total counter\n",
		`gnsslna_design_attain_evals_total{name="design.attain.evals"} 42` + "\n",
		"# TYPE gnsslna_design_attain_best gauge\n",
		`gnsslna_design_attain_best{name="design.attain.best"} -0.125` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Non-finite gauge values must render with Prometheus's exact spellings.
func TestWritePrometheusNonFiniteGauges(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("g.nan").Set(math.NaN())
	reg.Gauge("g.posinf").Set(math.Inf(1))
	reg.Gauge("g.neginf").Set(math.Inf(-1))
	out := render(t, reg)
	for _, want := range []string{
		`gnsslna_g_nan{name="g.nan"} NaN`,
		`gnsslna_g_posinf{name="g.posinf"} +Inf`,
		`gnsslna_g_neginf{name="g.neginf"} -Inf`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// An empty histogram still exposes its full bucket grid with zero counts,
// a zero sum and a zero count, ending in the +Inf bucket.
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("empty.ms")
	out := render(t, reg)
	if !strings.Contains(out, "# TYPE gnsslna_empty_ms histogram\n") {
		t.Fatalf("missing histogram TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `gnsslna_empty_ms_bucket{name="empty.ms",le="+Inf"} 0`+"\n") {
		t.Errorf("missing zero +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `gnsslna_empty_ms_sum{name="empty.ms"} 0`+"\n") ||
		!strings.Contains(out, `gnsslna_empty_ms_count{name="empty.ms"} 0`+"\n") {
		t.Errorf("missing zero sum/count:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "gnsslna_empty_ms_bucket") && !strings.HasSuffix(line, " 0") {
			t.Errorf("empty histogram has non-zero bucket: %s", line)
		}
	}
}

// parseHistogram pulls the bucket counts (in emission order), the final
// +Inf count and the _count value for one histogram family out of the text.
func parseHistogram(t *testing.T, out, fam string) (buckets []int64, inf, count int64) {
	t.Helper()
	inf, count = -1, -1
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, fam+"_bucket{"):
			fields := strings.Fields(line)
			n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			buckets = append(buckets, n)
			if strings.Contains(line, `le="+Inf"`) {
				inf = n
			}
		case strings.HasPrefix(line, fam+"_count{"):
			fields := strings.Fields(line)
			n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = n
		}
	}
	return buckets, inf, count
}

// Histogram buckets must be cumulative and ordered: non-decreasing counts,
// +Inf bucket equal to the total count.
func TestWritePrometheusHistogramCumulative(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("span.ms")
	for _, v := range []float64{0.5, 0.6, 3, 100, 1e9} {
		h.Observe(v)
	}
	out := render(t, reg)
	buckets, inf, count := parseHistogram(t, out, "gnsslna_span_ms")
	if len(buckets) == 0 {
		t.Fatalf("no bucket lines:\n%s", out)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("bucket %d count %d < previous %d: not cumulative", i, buckets[i], buckets[i-1])
		}
	}
	if inf != 5 || count != 5 {
		t.Fatalf("+Inf bucket = %d, _count = %d, want both 5", inf, count)
	}
	if buckets[0] != 0 {
		t.Fatalf("first bucket = %d, want 0 (all samples >= 0.5)", buckets[0])
	}
}

// Registry names that collide after sanitization legally share one family
// (one TYPE line, two series told apart by the name label); a histogram
// whose family would collide with a gauge gains the _hist suffix so no
// family is declared with two types.
func TestWritePrometheusCollisions(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a.b").Add(1)
	reg.Counter("a_b").Add(2)
	reg.Gauge("mixed").Set(1)
	reg.Histogram("mixed").Observe(1)
	out := render(t, reg)

	if got := strings.Count(out, "# TYPE gnsslna_a_b_total counter\n"); got != 1 {
		t.Errorf("counter family declared %d times, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, `gnsslna_a_b_total{name="a.b"} 1`+"\n") ||
		!strings.Contains(out, `gnsslna_a_b_total{name="a_b"} 2`+"\n") {
		t.Errorf("collided counters missing distinct series:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE gnsslna_mixed gauge\n") ||
		!strings.Contains(out, "# TYPE gnsslna_mixed_hist histogram\n") {
		t.Errorf("gauge/histogram name collision not disambiguated:\n%s", out)
	}
}

// Label values keep the exact registry name, escaped per the text format.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("weird\"name\\with\nstuff").Inc()
	out := render(t, reg)
	want := `{name="weird\"name\\with\nstuff"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("output missing escaped label %q:\n%s", want, out)
	}
}

// Rendering the same registry twice yields byte-identical output, and every
// registry metric appears exactly once as a family.
func TestWritePrometheusDeterministic(t *testing.T) {
	reg := obs.NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.mid", "m.mid2", "b.c", "q.r"} {
		reg.Counter(n).Inc()
		reg.Gauge(n + ".g").Set(1)
		reg.Histogram(n + ".ms").Observe(2)
	}
	first := render(t, reg)
	for i := 0; i < 5; i++ {
		if got := render(t, reg); got != first {
			t.Fatalf("render %d differs from first:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Families are sorted.
	var fams []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] < fams[i-1] {
			t.Fatalf("families out of order: %q after %q", fams[i], fams[i-1])
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, nil); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q, want empty success", err, b.String())
	}
}

// Every histogram exposes a companion gauge-typed _quantile family carrying
// the estimated p50/p90/p95/p99, pinned line-for-line here so the exposition
// shape the SLO dashboards scrape cannot drift silently.
func TestWritePrometheusQuantileFamily(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("lat.ms").Observe(7)
	out := render(t, reg)

	// A single observation pins every quantile to the observed value exactly
	// (the estimator clamps its bucket midpoint into [min, max]).
	want := "# TYPE gnsslna_lat_ms_quantile gauge\n" +
		"gnsslna_lat_ms_quantile{name=\"lat.ms\",quantile=\"0.5\"} 7\n" +
		"gnsslna_lat_ms_quantile{name=\"lat.ms\",quantile=\"0.9\"} 7\n" +
		"gnsslna_lat_ms_quantile{name=\"lat.ms\",quantile=\"0.95\"} 7\n" +
		"gnsslna_lat_ms_quantile{name=\"lat.ms\",quantile=\"0.99\"} 7\n"
	if !strings.Contains(out, want) {
		t.Fatalf("output missing pinned quantile block:\n%s\nwant:\n%s", out, want)
	}
}

// An empty histogram reports NaN quantiles — the format's "no data" — never
// a misleading zero.
func TestWritePrometheusQuantileEmptyHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("empty.ms")
	out := render(t, reg)
	for _, q := range []string{"0.5", "0.9", "0.95", "0.99"} {
		want := `gnsslna_empty_ms_quantile{name="empty.ms",quantile="` + q + `"} NaN`
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Quantile estimates are monotonic in q and bracketed by the observed range.
func TestWritePrometheusQuantileOrdering(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("spread.ms")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	out := render(t, reg)
	var got []float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "gnsslna_spread_ms_quantile{") {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad quantile line %q: %v", line, err)
			}
			got = append(got, v)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %d quantile lines, want 4:\n%s", len(got), out)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("quantiles not monotonic: %v", got)
		}
	}
	if got[0] < 1 || got[3] > 1000 {
		t.Fatalf("quantiles outside observed range [1,1000]: %v", got)
	}
}

// A histogram whose family collides with a gauge carries its quantiles under
// the _hist_quantile name, mirroring the histogram family's own suffix.
func TestWritePrometheusQuantileCollision(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("mixed").Set(1)
	reg.Histogram("mixed").Observe(4)
	out := render(t, reg)
	if !strings.Contains(out, "# TYPE gnsslna_mixed_hist_quantile gauge\n") {
		t.Fatalf("collided histogram's quantile family missing:\n%s", out)
	}
	if !strings.Contains(out, `gnsslna_mixed_hist_quantile{name="mixed",quantile="0.99"} 4`+"\n") {
		t.Fatalf("collided quantile series missing:\n%s", out)
	}
}

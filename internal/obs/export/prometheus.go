// Package export is the read/serve side of the observability stack: it
// renders the obs metrics registry in Prometheus text exposition format and
// embeds a small HTTP server exposing /metrics, /healthz, /runs, a live
// /events SSE stream and /debug/pprof — the endpoints behind the CLIs'
// -serve flag.
package export

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gnsslna/internal/obs"
)

// namespace prefixes every exposed metric family.
const namespace = "gnsslna"

// SanitizeName lowers an internal dotted metric name ("design.attain.de.ms")
// to a legal Prometheus metric-name fragment: every rune outside
// [a-zA-Z0-9_:] becomes '_', and a leading digit gains a '_' prefix. The
// empty name becomes "_".
func SanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// EscapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote and newline become \\, \" and \n.
func EscapeLabel(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a sample value; Prometheus spells non-finite values
// NaN, +Inf and -Inf.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series is one labeled series within a family: its sample lines stay in
// emission order (histogram buckets must keep increasing le), while series
// within a family sort by the registry name carried in the name label.
type series struct {
	key   string
	lines []string
}

// family is one exposition family: a TYPE header plus its series, keyed and
// sorted by the sanitized family name.
type family struct {
	name   string
	typ    string
	series []series
}

// WritePrometheus renders every metric in the registry in Prometheus text
// exposition format (version 0.0.4). Output is deterministic: families are
// sorted by exposed name and series within a family by their name label.
//
// Naming: a registry metric "design.attain.de.evals" becomes the family
// gnsslna_design_attain_de_evals (counters gain the conventional _total
// suffix) and keeps its exact registry name in the name="..." label, escaped
// per the text format. Two registry names that sanitize identically (e.g.
// "a.b" and "a_b") legally share a family, distinguished by the name label;
// a histogram whose family would collide with a gauge family gains a _hist
// suffix so no family is typed twice.
//
// Histogram buckets come from obs.Histogram.Cumulative, so the le bounds are
// cumulative and the +Inf bucket equals the sample count, as the format
// requires.
func WritePrometheus(w io.Writer, reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	s := reg.Snapshot()

	fams := map[string]*family{}
	get := func(name, typ string) *family {
		f := fams[name]
		if f == nil {
			f = &family{name: name, typ: typ}
			fams[name] = f
		}
		return f
	}

	gaugeFams := map[string]bool{}
	for name := range s.Gauges {
		gaugeFams[namespace+"_"+SanitizeName(name)] = true
	}

	for name, v := range s.Counters {
		fam := namespace + "_" + SanitizeName(name) + "_total"
		f := get(fam, "counter")
		f.series = append(f.series, series{key: name, lines: []string{
			fmt.Sprintf(`%s{name="%s"} %d`, fam, EscapeLabel(name), v),
		}})
	}
	for name, v := range s.Gauges {
		fam := namespace + "_" + SanitizeName(name)
		f := get(fam, "gauge")
		f.series = append(f.series, series{key: name, lines: []string{
			fmt.Sprintf(`%s{name="%s"} %s`, fam, EscapeLabel(name), formatValue(v)),
		}})
	}
	for name := range s.Histograms {
		fam := namespace + "_" + SanitizeName(name)
		if gaugeFams[fam] {
			fam += "_hist"
		}
		f := get(fam, "histogram")
		h := s.Histograms[name]
		label := EscapeLabel(name)
		se := series{key: name}
		for _, b := range reg.Histogram(name).Cumulative() {
			se.lines = append(se.lines,
				fmt.Sprintf(`%s_bucket{name="%s",le="%s"} %d`, fam, label, formatValue(b.Le), b.Count))
		}
		se.lines = append(se.lines,
			fmt.Sprintf(`%s_sum{name="%s"} %s`, fam, label, formatValue(h.Sum)),
			fmt.Sprintf(`%s_count{name="%s"} %d`, fam, label, h.Count))
		f.series = append(f.series, se)
	}

	// Every histogram additionally exposes a gauge-typed _quantile family
	// with estimated p50/p90/p95/p99 — the SLO dashboards' latency families.
	// An empty histogram reports NaN (the format's spelling of "no data"),
	// never a misleading zero. In the rare case the _quantile name lands on a
	// family of another type (a registry histogram literally named
	// "*_quantile"), the quantile family yields with a _gauge suffix.
	for name := range s.Histograms {
		fam := namespace + "_" + SanitizeName(name)
		if gaugeFams[fam] {
			fam += "_hist"
		}
		qfam := fam + "_quantile"
		if f := fams[qfam]; f != nil && f.typ != "gauge" {
			qfam += "_gauge"
		}
		f := get(qfam, "gauge")
		h := reg.Histogram(name)
		label := EscapeLabel(name)
		se := series{key: name}
		for _, q := range [...]float64{0.5, 0.9, 0.95, 0.99} {
			se.lines = append(se.lines,
				fmt.Sprintf(`%s{name="%s",quantile="%s"} %s`,
					qfam, label, formatValue(q), formatValue(h.Quantile(q))))
		}
		f.series = append(f.series, se)
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, se := range f.series {
			for _, l := range se.lines {
				if _, err := fmt.Fprintln(w, l); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

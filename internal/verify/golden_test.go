package verify

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/mna"
	"gnsslna/internal/netlist"
	"gnsslna/internal/twoport"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// The behaviour fence: committed outputs of the evaluation engine, written
// as hexadecimal floats and compared value by value under ==. A refactor
// that moves any number (beyond the sign of a zero, which == ignores)
// fails here. Regenerate with
//
//	go test ./internal/verify -run Golden -update
//
// only in a change that means to alter the arithmetic, and say why in its
// description.

// skipOffAMD64 skips a golden comparison on architectures whose compilers
// fuse multiply-adds: the recorded bits are amd64's.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// goldenDoc accumulates golden lines: a label, then key=value tokens.
type goldenDoc struct{ lines []string }

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func (g *goldenDoc) line(label string, toks ...string) {
	g.lines = append(g.lines, strings.Join(append([]string{label}, toks...), " "))
}

func (g *goldenDoc) String() string { return strings.Join(g.lines, "\n") + "\n" }

// structTokens renders every float64 leaf of a struct (recursing into
// nested structs) as name=value. Slice fields are handed to rows so the
// caller can write one line per element; any other kind is a fence bug.
func structTokens(v reflect.Value, prefix string, rows func(name string, s reflect.Value)) []string {
	var toks []string
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := prefix + t.Field(i).Name
		switch f.Kind() {
		case reflect.Float64:
			toks = append(toks, name+"="+hexf(f.Float()))
		case reflect.Struct:
			toks = append(toks, structTokens(f, name+".", rows)...)
		case reflect.Slice:
			rows(name, f)
		default:
			panic(fmt.Sprintf("golden: field %s has unhandled kind %s", name, f.Kind()))
		}
	}
	return toks
}

// mat2Tokens renders the real and imaginary parts of every entry.
func mat2Tokens(name string, m twoport.Mat2) []string {
	var toks []string
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			toks = append(toks,
				fmt.Sprintf("%s%d%d.re=%s", name, i+1, j+1, hexf(real(m[i][j]))),
				fmt.Sprintf("%s%d%d.im=%s", name, i+1, j+1, hexf(imag(m[i][j]))))
		}
	}
	return toks
}

// pointTokens renders one PointMetrics.
func pointTokens(m core.PointMetrics) []string {
	return structTokens(reflect.ValueOf(m), "", func(string, reflect.Value) {})
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update. Lines must agree in label and keys exactly and in every
// value under == (two NaNs count as equal).
func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -update): %v", path, err)
	}
	want := splitLines(string(raw))
	have := splitLines(got)
	if len(want) != len(have) {
		t.Fatalf("%s: %d lines, golden has %d", name, len(have), len(want))
	}
	bad := 0
	for i := range want {
		if msg := goldenLineDiff(want[i], have[i]); msg != "" {
			bad++
			if bad <= 20 {
				t.Errorf("%s line %d: %s", name, i+1, msg)
			}
		}
	}
	if bad > 20 {
		t.Errorf("%s: %d differing lines in total", name, bad)
	}
}

func splitLines(s string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}

// goldenLineDiff explains how got differs from want, or returns "".
func goldenLineDiff(want, got string) string {
	wt, gt := strings.Fields(want), strings.Fields(got)
	if len(wt) != len(gt) {
		return fmt.Sprintf("token count %d, golden %d\n got  %s\n want %s", len(gt), len(wt), got, want)
	}
	for k := range wt {
		wk, wv, wok := strings.Cut(wt[k], "=")
		gk, gv, gok := strings.Cut(gt[k], "=")
		if !wok || !gok {
			if wt[k] != gt[k] {
				return fmt.Sprintf("token %q, golden %q", gt[k], wt[k])
			}
			continue
		}
		if wk != gk {
			return fmt.Sprintf("key %q, golden %q", gk, wk)
		}
		a, errA := strconv.ParseFloat(wv, 64)
		b, errB := strconv.ParseFloat(gv, 64)
		if errA != nil || errB != nil {
			return fmt.Sprintf("%s: unparsable value %q / golden %q", wk, gv, wv)
		}
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			return fmt.Sprintf("%s = %s (%.17g), golden %s (%.17g)", wk, gv, b, wv, a)
		}
	}
	return ""
}

// goldenDesigner is the fenced evaluation context: the golden device on
// the default spec, memo off so every call computes.
func goldenDesigner() *core.Designer {
	d := core.NewDesigner(core.NewBuilder(device.Golden()))
	d.Memo = nil
	return d
}

// TestGoldenEvaluate pins Designer.Evaluate over the design-box corpus —
// all 64 corners, the centre and 24 seeded interior points — field by
// field, every in-band point included.
func TestGoldenEvaluate(t *testing.T) {
	skipOffAMD64(t)
	d := goldenDesigner()
	lo, hi := core.DesignBounds()
	var g goldenDoc
	for k, x := range boxSamples(lo, hi, 24) {
		ev, err := d.Evaluate(core.DesignFromVector(x))
		g.evaluation(fmt.Sprintf("eval[%d]", k), ev, err)
	}
	checkGolden(t, "evaluate.golden", g.String())
}

// evaluation writes every field of ev on one line and each in-band point
// on a line of its own, or a bare error marker.
func (g *goldenDoc) evaluation(label string, ev core.Evaluation, err error) {
	if err != nil {
		g.line(label, "error")
		return
	}
	var rows []string
	toks := structTokens(reflect.ValueOf(ev), "", func(name string, s reflect.Value) {
		for i := 0; i < s.Len(); i++ {
			row := fmt.Sprintf("%s.%s[%d]", label, name, i)
			rows = append(rows, strings.Join(append([]string{row},
				structTokens(s.Index(i), "", nil)...), " "))
		}
	})
	g.line(label, toks...)
	g.lines = append(g.lines, rows...)
}

// TestGoldenDistributed pins Designer.EvaluateDistributed over the
// microstrip box: its all-low and all-high corners, the centre and 32
// seeded interior points, every in-band point included.
func TestGoldenDistributed(t *testing.T) {
	skipOffAMD64(t)
	d := goldenDesigner()
	lo, hi := core.DistributedBounds()
	samples := boxSamples(lo, hi, 32)
	corners := 1 << len(lo)
	samples = append([][]float64{samples[0], samples[corners-1]}, samples[corners:]...)
	var g goldenDoc
	for k, x := range samples {
		ev, err := d.EvaluateDistributed(core.DistributedFromVector(x))
		g.evaluation(fmt.Sprintf("dist[%d]", k), ev, err)
	}
	checkGolden(t, "distributed.golden", g.String())
}

// TestGoldenBiasNet pins what `lnaopt -bom` prints about the bias network:
// the E24 divider and drain resistor DesignBiasNetwork picks, the
// operating point its nonlinear DC solve lands on, and PowerUpCheck's
// supply-ramp transient. The corpus is the operating-point box (corners,
// centre and 24 seeded points) at 5 V and 3.3 V; a design a supply cannot
// bias records its error text.
func TestGoldenBiasNet(t *testing.T) {
	skipOffAMD64(t)
	d := goldenDesigner()
	lo, hi := core.DesignBounds()
	var g goldenDoc
	for _, vcc := range []float64{5, 3.3} {
		for k, x := range boxSamples(lo[:2], hi[:2], 24) {
			label := fmt.Sprintf("bias[%g,%d] Vgs=%s Vds=%s", vcc, k, hexf(x[0]), hexf(x[1]))
			bn, err := d.DesignBiasNetwork(core.Design{Vgs: x[0], Vds: x[1]}, vcc)
			if err != nil {
				g.line(label, append([]string{"error"}, strings.Fields(err.Error())...)...)
				continue
			}
			pu, err := d.PowerUpCheck(bn, 1e-4)
			if err != nil {
				g.line(label, append([]string{"powerup-error"}, strings.Fields(err.Error())...)...)
				continue
			}
			toks := structTokens(reflect.ValueOf(bn), "", nil)
			g.line(label, append(toks, structTokens(reflect.ValueOf(pu), "PowerUp.", nil)...)...)
		}
	}
	checkGolden(t, "biasnet.golden", g.String())
}

// TestGoldenViews pins the amplifier's public views over the
// evaluate.golden corpus: Sweep and Network's S over the in-band and
// stability grids, GroupDelay at three in-band frequencies and NoisyAt's
// chain and correlation matrices at one in-band and one stability
// frequency. A call that fails records an error marker.
func TestGoldenViews(t *testing.T) {
	skipOffAMD64(t)
	d := goldenDesigner()
	band, stab := d.SweepGrids()
	lo, hi := core.DesignBounds()
	var g goldenDoc
	for k, x := range boxSamples(lo, hi, 24) {
		label := fmt.Sprintf("view[%d]", k)
		amp, err := d.Builder.Build(core.DesignFromVector(x))
		if err != nil {
			g.line(label, "error")
			continue
		}
		for _, grid := range []struct {
			name  string
			freqs []float64
		}{{"band", band}, {"stab", stab}} {
			row := label + ".sweep." + grid.name
			if pts, err := amp.Sweep(grid.freqs, 50); err != nil {
				g.line(row, "error")
			} else {
				for i, m := range pts {
					g.line(fmt.Sprintf("%s[%d]", row, i), pointTokens(m)...)
				}
			}
			row = label + ".network." + grid.name
			if net, err := amp.Network(grid.freqs, 50); err != nil {
				g.line(row, "error")
			} else {
				for i, f := range net.Freqs {
					g.line(fmt.Sprintf("%s[%d]", row, i), append([]string{"f=" + hexf(f)}, mat2Tokens("S", net.S[i])...)...)
				}
			}
		}
		for i, f := range []float64{band[0], band[len(band)/2], band[len(band)-1]} {
			row := fmt.Sprintf("%s.gd[%d]", label, i)
			if tg, err := amp.GroupDelay(f, 50, 0); err != nil {
				g.line(row, "error")
			} else {
				g.line(row, "f="+hexf(f), "tg="+hexf(tg))
			}
		}
		for i, f := range []float64{band[len(band)/2], stab[0]} {
			row := fmt.Sprintf("%s.noisy[%d]", label, i)
			if tp, err := amp.NoisyAt(f); err != nil {
				g.line(row, "error")
			} else {
				g.line(row, append(append([]string{"f=" + hexf(f)}, mat2Tokens("A", tp.A)...), mat2Tokens("CA", tp.CA)...)...)
			}
		}
	}
	checkGolden(t, "views.golden", g.String())
}

// TestGoldenTwoStage pins TwoStage.MetricsAt for 8 consecutive pairs of
// interior corpus designs on the in-band and stability grids.
func TestGoldenTwoStage(t *testing.T) {
	skipOffAMD64(t)
	d := goldenDesigner()
	lo, hi := core.DesignBounds()
	corpus := boxSamples(lo, hi, 24)
	interior := corpus[len(corpus)-24:]
	band, stab := d.SweepGrids()
	var g goldenDoc
	for k := 0; k < 8; k++ {
		label := fmt.Sprintf("twostage[%d]", k)
		ts, err := d.Builder.BuildTwoStage(core.DesignFromVector(interior[k]), core.DesignFromVector(interior[k+1]))
		if err != nil {
			g.line(label, "error")
			continue
		}
		for _, grid := range []struct {
			name  string
			freqs []float64
		}{{"band", band}, {"stab", stab}} {
			for i, f := range grid.freqs {
				row := fmt.Sprintf("%s.%s[%d]", label, grid.name, i)
				m, err := ts.MetricsAt(f, 50)
				if err != nil {
					g.line(row, "error")
					continue
				}
				g.line(row, pointTokens(m)...)
			}
		}
	}
	checkGolden(t, "twostage.golden", g.String())
}

// goldenActiveCircuit is an amplifier-shaped netlist exercising every MNA
// element kind: resistors, reactive branches, a delayed and a delay-free
// VCCS, and a lossy transmission line.
func goldenActiveCircuit() *mna.Circuit {
	c := mna.New()
	c.AddR("in", "g", 5)
	c.AddC("g", "0", 0.4e-12)
	c.AddC("g", "d", 0.05e-12)
	c.AddVCCS("g", "0", "d", "0", 0.08, 1.5e-12)
	c.AddVCCS("d", "0", "d", "0", 1e-4, 0)
	c.AddR("d", "out", 3)
	c.AddL("out", "0", 8e-9)
	c.AddLine("out", "p2",
		func(float64) complex128 { return complex(50, 0) },
		func(f float64) complex128 { return complex(0.1, 2*math.Pi*f/3e8) },
		2e-3)
	return c
}

// TestGoldenMNA pins the MNA engine's S-parameters on the differential
// ladder corpus, the committed acsim example deck and an active netlist,
// plus the open-circuit Z-parameters of the active netlist.
func TestGoldenMNA(t *testing.T) {
	skipOffAMD64(t)
	var g goldenDoc
	writeNet := func(label string, n *twoport.Network) {
		for i, f := range n.Freqs {
			g.line(fmt.Sprintf("%s[%d]", label, i), append([]string{"f=" + hexf(f)}, mat2Tokens("S", n.S[i])...)...)
		}
	}
	for _, tc := range ladderCorpus() {
		net, err := LadderNetworkMNA(tc.elems, ladderGrid(), 50)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		writeNet("ladder."+strings.ReplaceAll(tc.name, " ", "_"), net)
	}

	fh, err := os.Open(filepath.Join("..", "..", "examples", "netlists", "gnss_match.cir"))
	if err != nil {
		t.Fatal(err)
	}
	deck, err := netlist.Parse(fh)
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}
	net, err := deck.Run()
	if err != nil {
		t.Fatal(err)
	}
	writeNet("deck.gnss_match", net)

	grid := mathx.Logspace(100e6, 10e9, 17)
	net, err = goldenActiveCircuit().SParams2(grid, "in", "p2", 50)
	if err != nil {
		t.Fatal(err)
	}
	writeNet("active", net)
	c := goldenActiveCircuit()
	for i, f := range grid {
		z, err := c.ZParams(f, []string{"in", "p2"})
		if err != nil {
			t.Fatal(err)
		}
		m := twoport.Mat2{{z.At(0, 0), z.At(0, 1)}, {z.At(1, 0), z.At(1, 1)}}
		g.line(fmt.Sprintf("active.z[%d]", i), append([]string{"f=" + hexf(f)}, mat2Tokens("Z", m)...)...)
	}
	checkGolden(t, "mna.golden", g.String())
}

package extract

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gnsslna/internal/device"
)

var update = flag.Bool("update", false, "rewrite testdata/threestep.golden")

// The extraction fence: quick-budget ThreeStep results for every DC model
// at campaign and search seeds 1 and 2, plus one DE-only baseline run,
// written as hexadecimal floats and compared value by value under ==. A
// change that moves any fitted number, residual or evaluation count fails
// here. Regenerate with
//
//	go test ./internal/extract -run Golden -update
//
// only in a change that means to alter the extraction's arithmetic or
// search trajectory, and say why in its description.

const goldenFile = "threestep.golden"

// quickConfig is the quick extraction budget the facade, the job server and
// the benchmark use.
func quickConfig(seed int64, workers int) Config {
	return Config{Seed: seed, DCEvals: 6000, GlobalEvals: 2500, RefineIters: 20, Workers: workers}
}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// threeStepLines renders every float of a ThreeStep result as name=hex and
// the evaluation counts as integers, one line for the scalars, one for the
// device and one for the DC model parameters.
func threeStepLines(label string, res Result) string {
	d := res.Device
	var b strings.Builder
	b.WriteString(label + " SRMSE=" + hexf(res.SRMSE) + " SRMSEAfterDE=" + hexf(res.SRMSEAfterDE) +
		" DC.RMSE=" + hexf(res.DC.RMSE) + " DC.RelRMSE=" + hexf(res.DC.RelRMSE) +
		" SEvals=" + strconv.Itoa(res.SEvals) + " DC.Evals=" + strconv.Itoa(res.DC.Evals) + "\n")
	dev := []struct {
		name string
		v    float64
	}{
		{"Cgs0", d.Caps.Cgs0}, {"CgsPinch", d.Caps.CgsPinch}, {"CgsVmid", d.Caps.CgsVmid},
		{"CgsVscale", d.Caps.CgsVscale}, {"Cgd0", d.Caps.Cgd0}, {"CgdVscale", d.Caps.CgdVscale},
		{"Cds", d.Caps.Cds}, {"Ri", d.Ri}, {"Tau", d.Tau},
		{"Rg", d.Ext.Rg}, {"Rs", d.Ext.Rs}, {"Rd", d.Ext.Rd},
		{"Lg", d.Ext.Lg}, {"Ls", d.Ext.Ls}, {"Ld", d.Ext.Ld},
		{"Cpg", d.Ext.Cpg}, {"Cpd", d.Ext.Cpd},
	}
	b.WriteString(label + " device")
	for _, p := range dev {
		b.WriteString(" " + p.name + "=" + hexf(p.v))
	}
	b.WriteString("\n" + label + " dc")
	names := res.DC.Model.ParamNames()
	for i, v := range res.DC.Model.Params() {
		b.WriteString(" " + names[i] + "=" + hexf(v))
	}
	b.WriteString("\n")
	return b.String()
}

// threeStepRuns extracts every DC model at the given seed and worker count.
func threeStepRuns(t *testing.T, seed int64, workers int) string {
	t.Helper()
	ds := testDataset(t, seed)
	var b strings.Builder
	for _, m := range device.AllModels() {
		res, err := ThreeStep(ds, m, quickConfig(seed, workers))
		if err != nil {
			t.Fatalf("%s seed %d: ThreeStep: %v", m.Name(), seed, err)
		}
		b.WriteString(threeStepLines("threestep "+m.Name()+" seed="+strconv.FormatInt(seed, 10), res))
	}
	return b.String()
}

func TestThreeStepGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var doc strings.Builder
	serial := threeStepRuns(t, 1, 1)
	doc.WriteString(serial)
	doc.WriteString(threeStepRuns(t, 2, 1))
	if par := threeStepRuns(t, 1, 2); par != serial {
		t.Errorf("Workers 2 differs from Workers 1 at seed 1:\n--- workers 1 ---\n%s--- workers 2 ---\n%s", serial, par)
	}

	// The DE-only baseline searches the parasitics too, on a DC model
	// fitted at the quick budget first (as E2 does).
	ds := testDataset(t, 1)
	dc := device.NewAngelov()
	fit, err := FitDC(dc, ds, 1, 6000)
	if err != nil {
		t.Fatalf("FitDC: %v", err)
	}
	cfg := quickConfig(1, 1)
	cfg.DCEvals = 1
	de, err := RunMethod(ds, dc, MethodDEOnly, cfg)
	if err != nil {
		t.Fatalf("DE-only: %v", err)
	}
	doc.WriteString("de-only Angelov seed=1 DC.RMSE=" + hexf(fit.RMSE) + " DC.RelRMSE=" + hexf(fit.RelRMSE) +
		" DC.Evals=" + strconv.Itoa(fit.Evals) + " SRMSE=" + hexf(de.SRMSE) + " Evals=" + strconv.Itoa(de.Evals) + "\n")

	checkGolden(t, doc.String())
}

// checkGolden compares got with the committed golden token by token: hex
// floats under ==, everything else as text.
func checkGolden(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", goldenFile)
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
	want, have := goldenLines(string(raw)), goldenLines(got)
	if len(want) != len(have) {
		t.Fatalf("%s: %d lines, golden has %d", goldenFile, len(have), len(want))
	}
	for i := range want {
		if msg := lineDiff(want[i], have[i]); msg != "" {
			t.Errorf("%s line %d: %s", goldenFile, i+1, msg)
		}
	}
}

func goldenLines(s string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}

// lineDiff reports the first token of got that differs from want, or "".
func lineDiff(want, got string) string {
	wt, gt := strings.Fields(want), strings.Fields(got)
	if len(wt) != len(gt) {
		return "token count differs:\n  want " + want + "\n  got  " + got
	}
	for i := range wt {
		if wt[i] == gt[i] {
			continue
		}
		wk, wv, _ := strings.Cut(wt[i], "=")
		gk, gv, _ := strings.Cut(gt[i], "=")
		if wk == gk && (strings.HasPrefix(wv, "0x") || strings.HasPrefix(wv, "-0x")) {
			w, err1 := strconv.ParseFloat(wv, 64)
			g, err2 := strconv.ParseFloat(gv, 64)
			if err1 == nil && err2 == nil && w == g {
				continue
			}
		}
		return "token " + wt[i] + " is now " + gt[i]
	}
	return ""
}

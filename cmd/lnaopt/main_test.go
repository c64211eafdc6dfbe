package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestQuickBOMGolden runs the quick flow with the bias network, the bill of
// materials and the power-up transient, and compares every byte of the
// report with the committed output.
func TestQuickBOMGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden output is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick", "-bom"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick_bom.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := stdout.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-seed", "x"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("run(%q): stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}

// TestMetricsSnapshotOnStdout runs the quick flow with -metrics: the
// snapshot belongs to the report, so it must land in the writer run was
// given, after the design.
func TestMetricsSnapshotOnStdout(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick", "-metrics"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	design := strings.Index(out, "operating point")
	snap := strings.Index(out, "\nmetrics snapshot:\n")
	if design < 0 || snap < design {
		t.Fatalf("stdout has the design at %d and the metrics snapshot at %d, want both, the snapshot last:\n%s", design, snap, out)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr %q, want empty", stderr.String())
	}
}

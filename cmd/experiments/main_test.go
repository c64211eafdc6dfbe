package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestQuickMarkdownFigures runs `experiments -quick -md -figs` and compares
// every byte of its stdout with the suite's own golden,
// internal/experiments/testdata/quick_seed1.md: every quick seed-1 table as
// markdown, then every figure.
func TestQuickMarkdownFigures(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden output is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick", "-md", "-figs"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "quick_seed1.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs first at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, the golden %d", len(gl), len(wl))
	}
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
	var stdout, stderr strings.Builder
	if code := run([]string{"-e", "e42", "-quick"}, &stdout, &stderr); code != 1 {
		t.Errorf("an unknown experiment: run = %d, want 1", code)
	}
	got := stderr.String()
	if !strings.HasPrefix(got, `experiments: unknown experiment "e42" (want e1, `) ||
		!strings.Contains(got, ", e12") || !strings.HasSuffix(got, " or all)\n") {
		t.Errorf("an unknown experiment: stderr %q, want every valid id", got)
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown experiment: stdout %q", stdout.String())
	}
}

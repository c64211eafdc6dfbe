package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestQuickGolden runs the quick Angelov extraction and compares every
// byte of the report with the committed output.
func TestQuickGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden output is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("report differs:\n got\n%s\n want\n%s", got, want)
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
	if code := run([]string{"-model", "Bogus"}, &stdout, &stderr); code != 1 {
		t.Errorf("an unknown model: run = %d, want 1", code)
	}
	if got := stderr.String(); got != "extract: unknown model \"Bogus\"\n" {
		t.Errorf("an unknown model: stderr %q", got)
	}
}

package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestGNSSMatchGolden simulates the example matching network with a
// Touchstone export and compares the table (the export path normalized to
// $S2P) and every byte of the written file with the committed output.
func TestGNSSMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden output is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	s2p := filepath.Join(t.TempDir(), "out.s2p")
	netlist := filepath.Join("..", "..", "examples", "netlists", "gnss_match.cir")
	var stdout, stderr strings.Builder
	if code := run([]string{"-s2p", s2p, netlist}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	wrote, err := os.ReadFile(s2p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ golden, got string }{
		{"gnss_match.golden", strings.ReplaceAll(stdout.String(), s2p, "$S2P")},
		{"gnss_match.s2p", string(wrote)},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if c.got != string(want) {
			t.Errorf("%s differs:\n got\n%s\n want\n%s", c.golden, c.got, want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-bogus", "x.cir"}, {}, {"a.cir", "b.cir"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("run(%q): stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.cir")
	var stdout, stderr strings.Builder
	if code := run([]string{missing}, &stdout, &stderr); code != 1 {
		t.Errorf("a missing netlist: run = %d, want 1", code)
	}
	if got := stderr.String(); !strings.HasPrefix(got, "acsim: open "+missing) {
		t.Errorf("a missing netlist: stderr %q", got)
	}
}

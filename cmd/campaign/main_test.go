package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnsslna/internal/campaign"
)

const smokeSpec = "../../examples/campaigns/smoke.yaml"

func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestCellsSubcommand(t *testing.T) {
	out, _ := runCLI(t, "cells", "-spec", smokeSpec)
	for _, want := range []string{"campaign smoke", "2 cells",
		"l1.gnss.ro4350.golden.attain.s1", "l1.gnss.ro4350.golden.attain.s2"} {
		if !strings.Contains(out, want) {
			t.Errorf("cells output missing %q:\n%s", want, out)
		}
	}
	jout, _ := runCLI(t, "cells", "-json", "-spec", smokeSpec)
	var cells []campaign.Cell
	if err := json.Unmarshal([]byte(jout), &cells); err != nil {
		t.Fatalf("cells JSON: %v", err)
	}
	if len(cells) != 2 || cells[1].Seed != 2 {
		t.Fatalf("cells = %+v", cells)
	}
}

// TestRunResumeCheckEndToEnd drives the committed smoke campaign through
// the full CLI surface: run, kill-free resume (summary deleted, rerun from
// checkpoint, bytes identical), and the check publish gate.
func TestRunResumeCheckEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign run skipped in -short")
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	out, _ := runCLI(t, "run", "-spec", smokeSpec, "-out", dir, "-parallel", "2", "-journal", journal)
	if !strings.Contains(out, "campaign smoke: 2 cells, 2 ok") {
		t.Fatalf("run output:\n%s", out)
	}
	first, err := os.ReadFile(filepath.Join(dir, campaign.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal not written: %v", err)
	}

	// Resume: with the summary gone but the checkpoint intact, the rerun
	// restores every cell and regenerates identical bytes.
	if err := os.Remove(filepath.Join(dir, campaign.SummaryFile)); err != nil {
		t.Fatal(err)
	}
	_, errOut := runCLI(t, "run", "-spec", smokeSpec, "-out", dir)
	if !strings.Contains(errOut, "2 restored from checkpoint") {
		t.Fatalf("rerun recomputed cells:\n%s", errOut)
	}
	second, err := os.ReadFile(filepath.Join(dir, campaign.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("resumed summary differs from the original run")
	}

	out, _ = runCLI(t, "check", "-out", dir)
	if !strings.Contains(out, "check ok") {
		t.Fatalf("check output:\n%s", out)
	}

	// A stale RESULTS.md must fail the publish gate.
	if err := os.WriteFile(filepath.Join(dir, campaign.ResultsFile), []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"check", "-out", dir}, &sb, &sb); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("tampered RESULTS.md passed check: %v", err)
	}
}

// Every committed example campaign must load, validate and expand.
func TestCommittedExamplesLoad(t *testing.T) {
	matches, err := filepath.Glob("../../examples/campaigns/*.yaml")
	if err != nil || len(matches) < 3 {
		t.Fatalf("examples missing: %v (%v)", matches, err)
	}
	for _, path := range matches {
		spec, err := campaign.Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if cells := spec.Expand(); len(cells) < 2 {
			t.Errorf("%s: only %d cells", path, len(cells))
		}
	}
}

// The paper scenario is the acceptance-criteria example: at least 4 cells.
func TestPaperCampaignHasFourCells(t *testing.T) {
	spec, err := campaign.Load("../../examples/campaigns/gnss-l1-l5.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if cells := spec.Expand(); len(cells) < 4 {
		t.Fatalf("paper campaign expands to %d cells, want >= 4", len(cells))
	}
}

// TestErrorLinePrefixOnce pins the exact message main prints: one
// "campaign: " prefix, whether the error comes from internal/campaign or
// from the command itself.
func TestErrorLinePrefixOnce(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.yaml")
	spec := "version: 1\nname: bad\naxes:\n  bands:\n    - f_low_hz: nan\n"
	if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	_, openErr := os.Open(filepath.Join(missing, campaign.SummaryFile))
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"cells", "-spec", bad},
			"campaign: " + bad + `: line 5: "nan" is not a finite number (quote it for a string)`},
		{[]string{"check", "-out", missing}, "campaign: " + openErr.Error()},
		{[]string{"cells"},
			"campaign: usage: campaign run|cells|check [flags] (see go doc gnsslna/cmd/campaign)"},
	} {
		var sb strings.Builder
		err := run(tc.args, &sb, &sb)
		if err == nil {
			t.Fatalf("run(%v) succeeded", tc.args)
		}
		if got := errorLine(err); got != tc.want {
			t.Errorf("run(%v) prints\n%s\nwant\n%s", tc.args, got, tc.want)
		}
	}
}

func TestBadUsage(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{}, {"nonsense"}, {"run"}, {"run", "-spec", smokeSpec}, {"cells"}, {"check"},
	} {
		if err := run(args, &sb, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want usage error", args)
		}
	}
}

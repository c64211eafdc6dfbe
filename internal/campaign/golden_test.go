package campaign

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestSmokeCampaignSummaryGolden pins the smoke campaign's summary byte for
// byte, with the substrate axis widened to ro4350 and fr4 (four cells). The
// fr4 cells set the builder's substrate after NewBuilder, so they exercise
// the path where a builder's derived parts follow a changed setting.
// Regenerate with
//
//	go test ./internal/campaign -run Golden -update
//
// only when a change is meant to move the design flow's numbers.
func TestSmokeCampaignSummaryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	spec, err := Load("../../examples/campaigns/smoke.yaml")
	if err != nil {
		t.Fatal(err)
	}
	spec.Axes.Substrates = []string{"ro4350", "fr4"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Run(spec, RunOptions{OutDir: dir, Parallel: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.CellCount != 4 || s.OKCount != 4 {
		t.Fatalf("cells = %d, ok = %d, want 4 and 4", s.CellCount, s.OKCount)
	}
	checkGolden(t, "smoke_summary.golden.json", readFile(t, filepath.Join(dir, SummaryFile)))
}

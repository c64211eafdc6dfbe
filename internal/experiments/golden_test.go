package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed1.md")

// TestQuickSeed1Golden pins the paper experiments end to end: every table
// of the quick seed-1 suite rendered as markdown, then every figure, as
// `experiments -md` and `-figs` print them, compared byte for byte.
// Regenerate with `go test ./internal/experiments -run Golden -update` only
// in a change that means to move the numbers, and say why.
func TestQuickSeed1Golden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden output is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	tables, err := testSuite.All()
	if err != nil {
		t.Fatal(err)
	}
	figures, err := testSuite.Figures()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := range tables {
		b.WriteString(tables[i].Markdown())
		b.WriteString("\n")
	}
	for _, f := range figures {
		b.WriteString("\n")
		b.WriteString(f)
	}
	got := b.String()

	path := filepath.Join("testdata", "quick_seed1.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -update): %v", path, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs first at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, golden %d", path, len(gl), len(wl))
	}
}

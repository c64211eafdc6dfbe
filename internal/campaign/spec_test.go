package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a minimal valid campaign with tiny budgets, shared by the
// spec, run and diff tests.
func testSpec() *Spec {
	s := &Spec{
		Version: 1, Name: "test", Seed: 1, Quick: true, Workers: 1,
		Budget: Budget{GlobalEvals: 60, PolishEvals: 30, Pop: 8, Generations: 3},
		Axes: Axes{
			Bands: []BandAxis{{Name: "l1", FLowHz: 1.559e9, FHighHz: 1.61e9, Points: 3}},
			Specs: []SpecAxis{{Name: "gnss", NFMaxDB: 0.9, GTMinDB: 14, S11MaxDB: -10, S22MaxDB: -10, PdcMaxW: 0.25}},
		},
	}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

func writeSpecFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const yamlSpec = `
version: 1
name: two-cell
seed: 3
quick: true
budget:
  global_evals: 60
  polish_evals: 30
axes:
  bands:
    - name: l1
      f_low_hz: 1.559e9
      f_high_hz: 1.61e9
      points: 3
  specs:
    - name: gnss
      nf_max_db: 0.9
      gt_min_db: 14
      s11_max_db: -10
      s22_max_db: -10
  substrates: [ro4350, fr4]
`

func TestLoadYAMLSpec(t *testing.T) {
	s, err := Load(writeSpecFile(t, "c.yaml", yamlSpec))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "two-cell" || !s.Quick || s.Budget.GlobalEvals != 60 {
		t.Fatalf("spec wrong: %+v", s)
	}
	// Defaults applied by Normalize.
	if got := s.Axes.Devices; len(got) != 1 || got[0] != "golden" {
		t.Fatalf("device default wrong: %v", got)
	}
	if got := s.Axes.Seeds; len(got) != 1 || got[0] != 3 {
		t.Fatalf("seed default wrong: %v", got)
	}
	cells := s.Expand()
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if cells[0].ID != "l1.gnss.ro4350.golden.attain.s3" || cells[1].ID != "l1.gnss.fr4.golden.attain.s3" {
		t.Fatalf("cell IDs wrong: %q %q", cells[0].ID, cells[1].ID)
	}
}

func TestLoadJSONSpecEquivalent(t *testing.T) {
	jsonBody := `{
  "version": 1, "name": "two-cell", "seed": 3, "quick": true,
  "budget": {"global_evals": 60, "polish_evals": 30},
  "axes": {
    "bands": [{"name": "l1", "f_low_hz": 1.559e9, "f_high_hz": 1.61e9, "points": 3}],
    "specs": [{"name": "gnss", "nf_max_db": 0.9, "gt_min_db": 14, "s11_max_db": -10, "s22_max_db": -10}],
    "substrates": ["ro4350", "fr4"]
  }
}`
	fromYAML, err := Load(writeSpecFile(t, "c.yaml", yamlSpec))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(writeSpecFile(t, "c.json", jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	if fromYAML.Digest() != fromJSON.Digest() {
		t.Fatalf("YAML and JSON spellings digest differently: %s vs %s",
			fromYAML.Digest(), fromJSON.Digest())
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(writeSpecFile(t, "c.yaml", yamlSpec+"\ntypo_field: 1\n"))
	if err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"version", func(s *Spec) { s.Version = 2 }, "version"},
		{"name", func(s *Spec) { s.Name = "Bad Name" }, "name"},
		{"no bands", func(s *Spec) { s.Axes.Bands = nil }, "axes.bands"},
		{"no specs", func(s *Spec) { s.Axes.Specs = nil }, "axes.specs"},
		{"band range", func(s *Spec) { s.Axes.Bands[0].FHighHz = s.Axes.Bands[0].FLowHz }, "f_low_hz < f_high_hz"},
		{"one point", func(s *Spec) { s.Axes.Bands[0].Points = 1 }, "points"},
		{"too many points", func(s *Spec) { s.Axes.Bands[0].Points = maxBandPoints + 1 }, `band "l1": points`},
		{"stab range", func(s *Spec) { s.Axes.Bands[0].StabLowHz = 5e9; s.Axes.Bands[0].StabHighHz = 1e9 }, "stab_low_hz"},
		{"nf", func(s *Spec) { s.Axes.Specs[0].NFMaxDB = 0 }, "nf_max_db"},
		{"substrate", func(s *Spec) { s.Axes.Substrates = []string{"teflon"} }, "substrate"},
		{"device", func(s *Spec) { s.Axes.Devices = []string{"variant-x"} }, "device"},
		{"algorithm", func(s *Spec) { s.Axes.Algorithms = []string{"pso"} }, "algorithm"},
		{"seed", func(s *Spec) { s.Axes.Seeds = []int64{0} }, "seed"},
		{"dup band", func(s *Spec) { s.Axes.Bands = append(s.Axes.Bands, s.Axes.Bands[0]) }, "duplicate band"},
		{"dup seed", func(s *Spec) { s.Axes.Seeds = []int64{2, 2} }, "duplicate seed"},
		{"negative pop", func(s *Spec) { s.Budget.Pop = -1 }, "budget.pop"},
		{"huge pop", func(s *Spec) { s.Budget.Pop = 1 << 62 }, "budget.pop"},
		{"too many generations", func(s *Spec) { s.Budget.Generations = maxBudgetGenerations + 1 }, "budget.generations"},
		{"huge global evals", func(s *Spec) { s.Budget.GlobalEvals = 1 << 62 }, "budget.global_evals"},
		{"too many polish evals", func(s *Spec) { s.Budget.PolishEvals = maxBudgetEvals + 1 }, "budget.polish_evals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mut(s)
			err := s.Normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestExpandOrderAndIndex(t *testing.T) {
	s := testSpec()
	s.Axes.Substrates = []string{"ro4350", "fr4"}
	s.Axes.Algorithms = []string{"attain", "nsga2"}
	s.Axes.Seeds = []int64{1, 2}
	cells := s.Expand()
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	// Seeds vary fastest, then algorithms, then substrates.
	wantPrefix := []string{
		"l1.gnss.ro4350.golden.attain.s1",
		"l1.gnss.ro4350.golden.attain.s2",
		"l1.gnss.ro4350.golden.nsga2.s1",
	}
	for i, want := range wantPrefix {
		if cells[i].ID != want || cells[i].Index != i {
			t.Fatalf("cell %d = %q (index %d), want %q", i, cells[i].ID, cells[i].Index, want)
		}
	}
}

func TestDigestTracksSpecContent(t *testing.T) {
	a, b := testSpec(), testSpec()
	if a.Digest() != b.Digest() {
		t.Fatal("identical specs digest differently")
	}
	b.Budget.GlobalEvals++
	if a.Digest() == b.Digest() {
		t.Fatal("edited spec kept the same digest")
	}
}

func TestDeviceSeedFor(t *testing.T) {
	if _, err := deviceSeedFor("golden"); err != nil {
		t.Fatal(err)
	}
	if n, err := deviceSeedFor("variant-7"); err != nil || n != 7 {
		t.Fatalf("variant-7: %d, %v", n, err)
	}
	for _, bad := range []string{"variant-0", "variant--1", "variant-", "goldenx"} {
		if _, err := deviceSeedFor(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

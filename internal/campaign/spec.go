// Package campaign is the declarative campaign engine: a YAML/JSON spec
// enumerates a (band, spec, substrate, device variant, algorithm, seed)
// grid, the runner expands it into deterministic per-cell design jobs,
// fans them out across the EvalPool worker machinery, checkpoints each
// finished cell through the resilience stage-checkpoint scheme (so a
// partially completed campaign resumes bit-identically), and emits a
// machine-readable campaign.summary.json plus a human RESULTS.md. Two
// summaries diff cell by cell via Diff / `obsreport campaign-diff`.
//
// The paper's contribution is this workflow — enumerate specifications,
// bands and bias conditions, optimize each, compare the fronts — and the
// campaign engine makes every new scenario (an S-band LNA, a C-band
// radio-astronomy front end, a PSO-vs-attainment comparison) a committed
// spec file instead of a hand-rolled shell loop.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Spec is one campaign: the axes whose cross product is the cell grid,
// plus the shared execution knobs.
type Spec struct {
	// Version is the spec schema version (must be 1).
	Version int `json:"version"`
	// Name identifies the campaign (lowercase, digits, dashes).
	Name string `json:"name"`
	// Seed is the default seed when Axes.Seeds is empty (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Quick trims the per-cell optimizer budgets and band grids, exactly
	// like the -quick flag of the CLI tools.
	Quick bool `json:"quick,omitempty"`
	// Workers bounds the per-cell evaluation fan-out (the EvalPool width
	// inside each solver; <= 1: serial). Results are bit-identical for any
	// worker count.
	Workers int `json:"workers,omitempty"`
	// Budget overrides the per-cell optimizer budgets (zero fields keep
	// the quick/full defaults).
	Budget Budget `json:"budget,omitempty"`
	// Axes define the campaign grid.
	Axes Axes `json:"axes"`
}

// Budget overrides the per-cell optimizer budgets.
type Budget struct {
	// GlobalEvals and PolishEvals budget the goal-attainment cells (each
	// at most maxBudgetEvals).
	GlobalEvals int `json:"global_evals,omitempty"`
	PolishEvals int `json:"polish_evals,omitempty"`
	// Pop and Generations budget the NSGA-II cells (at most maxBudgetPop
	// and maxBudgetGenerations).
	Pop         int `json:"pop,omitempty"`
	Generations int `json:"generations,omitempty"`
}

// Budget bounds: a cell sizes its population and archives from these
// counts, so an unbounded value from a spec file would exhaust memory or
// panic in the optimizer instead of failing validation.
const (
	maxBudgetEvals       = 1_000_000
	maxBudgetPop         = 10_000
	maxBudgetGenerations = 10_000
)

// Axes are the campaign grid dimensions. Bands and Specs are required;
// the remaining axes default to single-element lists (ro4350, golden,
// attain, and the campaign seed).
type Axes struct {
	Bands      []BandAxis `json:"bands"`
	Specs      []SpecAxis `json:"specs"`
	Substrates []string   `json:"substrates,omitempty"`
	Devices    []string   `json:"devices,omitempty"`
	Algorithms []string   `json:"algorithms,omitempty"`
	Seeds      []int64    `json:"seeds,omitempty"`
}

// BandAxis is one operating band: the in-band evaluation grid and the
// wide out-of-band stability scan.
type BandAxis struct {
	Name string `json:"name"`
	// FLowHz and FHighHz bound the operating band.
	FLowHz  float64 `json:"f_low_hz"`
	FHighHz float64 `json:"f_high_hz"`
	// Points is the number of in-band evaluation frequencies (0: 11, or 7
	// in quick mode; at most maxBandPoints).
	Points int `json:"points,omitempty"`
	// StabLowHz and StabHighHz bound the stability scan (0,0: 0.2-6 GHz).
	StabLowHz  float64 `json:"stab_low_hz,omitempty"`
	StabHighHz float64 `json:"stab_high_hz,omitempty"`
}

// maxBandPoints bounds a band's in-band grid: every cell allocates and
// grades the grid, so an unbounded count from a spec file would exhaust
// memory instead of failing validation.
const maxBandPoints = 1000

// SpecAxis is one requirement set: the design goals a cell optimizes
// toward and is graded against.
type SpecAxis struct {
	Name string `json:"name"`
	// NFMaxDB is the worst-case in-band noise-figure goal in dB.
	NFMaxDB float64 `json:"nf_max_db"`
	// GTMinDB is the minimum in-band transducer-gain goal in dB.
	GTMinDB float64 `json:"gt_min_db"`
	// S11MaxDB and S22MaxDB are the return-loss goals in dB.
	S11MaxDB float64 `json:"s11_max_db"`
	S22MaxDB float64 `json:"s22_max_db"`
	// PdcMaxW is the DC power budget in watts (0: unconstrained).
	PdcMaxW float64 `json:"pdc_max_w,omitempty"`
}

// Cell is one expanded grid point: a fully specified design job.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int
	// ID is the deterministic cell identity
	// (<band>.<spec>.<substrate>.<device>.<algorithm>.s<seed>) that keys
	// its stage checkpoint and its row in the summary.
	ID        string
	Band      BandAxis
	Spec      SpecAxis
	Substrate string
	Device    string
	Algorithm string
	Seed      int64
}

var identRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Supported axis vocabularies. Devices additionally admit "variant-<N>"
// (the process-shifted golden device of device.GoldenVariant).
var (
	knownAlgorithms = []string{"attain", "nsga2"}
)

// Load reads and validates a campaign spec file. The format follows the
// extension: .json is decoded directly; .yaml/.yml through the yamlite
// subset reader. Defaults are applied (see Normalize).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var jsonBytes []byte
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".json":
		jsonBytes = data
	case ".yaml", ".yml":
		doc, err := parseYamlite(data)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", path, err)
		}
		jsonBytes, err = json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", path, err)
		}
	default:
		return nil, fmt.Errorf("campaign: %s: unsupported spec extension %q (want .json, .yaml or .yml)", path, ext)
	}
	dec := json.NewDecoder(strings.NewReader(string(jsonBytes)))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	if err := spec.Normalize(); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return spec, nil
}

// Normalize applies defaults and validates the spec in place. Run and
// Expand require a normalized spec; Load normalizes automatically.
func (s *Spec) Normalize() error {
	if s.Version != 1 {
		return fmt.Errorf("version = %d, want 1", s.Version)
	}
	if !identRe.MatchString(s.Name) {
		return fmt.Errorf("name %q: want lowercase letters, digits and dashes", s.Name)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Axes.Bands) == 0 {
		return fmt.Errorf("axes.bands must name at least one band")
	}
	if len(s.Axes.Specs) == 0 {
		return fmt.Errorf("axes.specs must name at least one spec")
	}
	if len(s.Axes.Substrates) == 0 {
		s.Axes.Substrates = []string{"ro4350"}
	}
	if len(s.Axes.Devices) == 0 {
		s.Axes.Devices = []string{"golden"}
	}
	if len(s.Axes.Algorithms) == 0 {
		s.Axes.Algorithms = []string{"attain"}
	}
	if len(s.Axes.Seeds) == 0 {
		s.Axes.Seeds = []int64{s.Seed}
	}
	seen := map[string]bool{}
	for i, b := range s.Axes.Bands {
		if !identRe.MatchString(b.Name) {
			return fmt.Errorf("bands[%d].name %q: want lowercase letters, digits and dashes", i, b.Name)
		}
		if seen["b."+b.Name] {
			return fmt.Errorf("duplicate band name %q", b.Name)
		}
		seen["b."+b.Name] = true
		if !(b.FLowHz > 0 && b.FHighHz > b.FLowHz) {
			return fmt.Errorf("band %q: need 0 < f_low_hz < f_high_hz, got %g..%g", b.Name, b.FLowHz, b.FHighHz)
		}
		if b.Points < 0 || b.Points == 1 || b.Points > maxBandPoints {
			return fmt.Errorf("band %q: points = %d, want 0 or 2..%d", b.Name, b.Points, maxBandPoints)
		}
		if (b.StabLowHz != 0 || b.StabHighHz != 0) && !(b.StabLowHz > 0 && b.StabHighHz > b.StabLowHz) {
			return fmt.Errorf("band %q: need 0 < stab_low_hz < stab_high_hz, got %g..%g", b.Name, b.StabLowHz, b.StabHighHz)
		}
	}
	for i, sp := range s.Axes.Specs {
		if !identRe.MatchString(sp.Name) {
			return fmt.Errorf("specs[%d].name %q: want lowercase letters, digits and dashes", i, sp.Name)
		}
		if seen["s."+sp.Name] {
			return fmt.Errorf("duplicate spec name %q", sp.Name)
		}
		seen["s."+sp.Name] = true
		if sp.NFMaxDB <= 0 {
			return fmt.Errorf("spec %q: nf_max_db = %g, want > 0", sp.Name, sp.NFMaxDB)
		}
		if sp.PdcMaxW < 0 {
			return fmt.Errorf("spec %q: pdc_max_w = %g, want >= 0", sp.Name, sp.PdcMaxW)
		}
	}
	for _, sub := range s.Axes.Substrates {
		if _, err := substrateFor(sub); err != nil {
			return err
		}
		if seen["sub."+sub] {
			return fmt.Errorf("duplicate substrate %q", sub)
		}
		seen["sub."+sub] = true
	}
	for _, dev := range s.Axes.Devices {
		if _, err := deviceSeedFor(dev); err != nil {
			return err
		}
		if seen["dev."+dev] {
			return fmt.Errorf("duplicate device %q", dev)
		}
		seen["dev."+dev] = true
	}
	for _, alg := range s.Axes.Algorithms {
		ok := false
		for _, k := range knownAlgorithms {
			ok = ok || alg == k
		}
		if !ok {
			return fmt.Errorf("algorithm %q: want one of %s", alg, strings.Join(knownAlgorithms, ", "))
		}
		if seen["alg."+alg] {
			return fmt.Errorf("duplicate algorithm %q", alg)
		}
		seen["alg."+alg] = true
	}
	for _, sd := range s.Axes.Seeds {
		if sd <= 0 {
			return fmt.Errorf("seed %d: want > 0", sd)
		}
		if seen["seed."+strconv.FormatInt(sd, 10)] {
			return fmt.Errorf("duplicate seed %d", sd)
		}
		seen["seed."+strconv.FormatInt(sd, 10)] = true
	}
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"global_evals", s.Budget.GlobalEvals, maxBudgetEvals},
		{"polish_evals", s.Budget.PolishEvals, maxBudgetEvals},
		{"pop", s.Budget.Pop, maxBudgetPop},
		{"generations", s.Budget.Generations, maxBudgetGenerations},
	} {
		if f.val < 0 || f.val > f.max {
			return fmt.Errorf("budget.%s = %d, want 0..%d", f.name, f.val, f.max)
		}
	}
	return nil
}

// Expand enumerates the cell grid in the deterministic nested-axis order
// bands > specs > substrates > devices > algorithms > seeds. The order is
// part of the summary contract: cells appear in the summary exactly in
// expansion order.
func (s *Spec) Expand() []Cell {
	var out []Cell
	for _, b := range s.Axes.Bands {
		for _, sp := range s.Axes.Specs {
			for _, sub := range s.Axes.Substrates {
				for _, dev := range s.Axes.Devices {
					for _, alg := range s.Axes.Algorithms {
						for _, seed := range s.Axes.Seeds {
							out = append(out, Cell{
								Index: len(out),
								ID: fmt.Sprintf("%s.%s.%s.%s.%s.s%d",
									b.Name, sp.Name, sub, dev, alg, seed),
								Band: b, Spec: sp,
								Substrate: sub, Device: dev,
								Algorithm: alg, Seed: seed,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// Digest is the FNV-1a fingerprint of the normalized spec's canonical JSON
// form. It keys the campaign's stage checkpoints — a resumed run only
// accepts cells recorded under an identical spec — and lets campaign-diff
// flag comparisons across different campaign definitions.
func (s *Spec) Digest() string {
	raw, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail. Keep the method
		// total anyway.
		return "invalid"
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range raw {
		h = (h ^ uint64(b)) * prime64
	}
	return fmt.Sprintf("%016x", h)
}

// attainBudget resolves the goal-attainment budget for the spec mode.
func (s *Spec) attainBudget() (global, polish int) {
	global, polish = 5000, 3000
	if s.Quick {
		global, polish = 1500, 900
	}
	if s.Budget.GlobalEvals > 0 {
		global = s.Budget.GlobalEvals
	}
	if s.Budget.PolishEvals > 0 {
		polish = s.Budget.PolishEvals
	}
	return global, polish
}

// nsgaBudget resolves the NSGA-II budget for the spec mode.
func (s *Spec) nsgaBudget() (pop, generations int) {
	pop, generations = 64, 60
	if s.Quick {
		pop, generations = 24, 18
	}
	if s.Budget.Pop > 0 {
		pop = s.Budget.Pop
	}
	if s.Budget.Generations > 0 {
		generations = s.Budget.Generations
	}
	return pop, generations
}

// bandPoints resolves a band's in-band grid size for the spec mode.
func (s *Spec) bandPoints(b BandAxis) int {
	if b.Points >= 2 {
		return b.Points
	}
	if s.Quick {
		return 7
	}
	return 11
}

// deviceSeedFor parses a device axis value: "golden" (seed 0) or
// "variant-<N>" for the process-shifted golden device with seed N.
func deviceSeedFor(name string) (variantSeed int64, err error) {
	if name == "golden" {
		return 0, nil
	}
	if rest, ok := strings.CutPrefix(name, "variant-"); ok {
		n, err := strconv.ParseInt(rest, 10, 64)
		if err == nil && n > 0 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("device %q: want \"golden\" or \"variant-<N>\"", name)
}

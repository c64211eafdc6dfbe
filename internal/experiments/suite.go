package experiments

import (
	"context"
	"fmt"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/extract"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/vna"
)

// Config scales the experiment budgets.
type Config struct {
	// Seed drives every deterministic random process.
	Seed int64
	// Quick trims optimization budgets for tests and benchmarks.
	Quick bool
	// Observer receives progress events from every pipeline the suite runs:
	// optimizer convergence records, extraction step spans, the measurement
	// campaign, and one "experiment.<id>" span per experiment whose eval
	// count aggregates the objective evaluations that experiment consumed
	// (nil: disabled).
	Observer obs.Observer
	// Control, when set, is polled by every optimizer the suite runs; a
	// stopped run surfaces as a wrapped *resilience.Stopped error (nil:
	// run to completion).
	Control *resilience.RunController
	// Checkpoint, when non-empty, is a JSONL file the suite appends
	// completed stage results to (extraction, design) and restores them
	// from on a later run with the same Seed and Quick mode, skipping the
	// recomputation entirely.
	Checkpoint string
	// Restarts bounds the jittered multi-start recoveries of the design
	// optimization after breaker trips (0: single attempt).
	Restarts int
	// Workers bounds the goroutines the optimization and sweep stages use
	// to fan out candidate evaluations (<= 1: serial). Results are
	// identical for any worker count.
	Workers int
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Suite shares expensive intermediate results (the measurement campaign,
// the optimized design, the extraction) across experiments.
type Suite struct {
	cfg    Config
	golden *device.PHEMT
	tally  *obs.Tally
	fwd    obs.Observer
	cur    obs.Observer

	dataset   *vna.Dataset
	extracted *extract.Result
	design    *core.DesignResult
	designer  *core.Designer
}

// NewSuite builds a suite around the golden device.
func NewSuite(cfg Config) *Suite {
	s := &Suite{cfg: cfg, golden: device.Golden()}
	switch o := cfg.Observer.(type) {
	case nil:
	case *obs.Traced:
		// Splice the tally between the trace stamping and the sink so the
		// observer the pipelines see is still a *obs.Traced — hiding it
		// behind the tally would flatten every span StartSpan opens.
		s.tally = obs.NewTally(o.Sink())
		s.fwd = o.WithSink(s.tally)
	default:
		s.tally = obs.NewTally(o)
		s.fwd = s.tally
	}
	return s
}

// obs returns the suite's forwarding observer, or nil when observation is
// disabled. All inner pipelines receive the tally so per-experiment eval
// deltas can be accounted; while an experiment is running they additionally
// emit through its span, so shared lazy stages parent under the first
// experiment that paid for them.
func (s *Suite) obs() obs.Observer {
	if s.cur != nil {
		return s.cur
	}
	return s.fwd
}

// Dataset lazily runs (and caches) the measurement campaign.
func (s *Suite) Dataset() (*vna.Dataset, error) {
	if s.dataset != nil {
		return s.dataset, nil
	}
	campaign := vna.DefaultCampaign(s.cfg.seed())
	campaign.Observer = s.obs()
	ds, err := vna.RunCampaign(s.golden, campaign)
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign: %w", err)
	}
	s.dataset = ds
	return ds, nil
}

// extractCfg returns the extraction budget for the suite mode.
func (s *Suite) extractCfg(seed int64) extract.Config {
	cfg := extract.Config{Seed: seed, Observer: s.obs(), Control: s.cfg.Control, Workers: s.cfg.Workers}
	if s.cfg.Quick {
		cfg = cfg.Quick()
	}
	return cfg
}

// attainOpts returns the design-optimization budget for the suite mode.
func (s *Suite) attainOpts(seed int64) *optim.AttainOptions {
	o := &optim.AttainOptions{
		Seed: seed, GlobalEvals: 5000, PolishEvals: 3000,
		Observer: s.obs(), Scope: "design.attain",
		Control: s.cfg.Control, Restarts: s.cfg.Restarts,
		Workers: s.cfg.Workers,
	}
	if s.cfg.Quick {
		o.GlobalEvals, o.PolishEvals = 1500, 900
	}
	return o
}

// restoreStage loads a checkpointed stage result into `into`, reporting
// whether the stage can be skipped. Restore failures degrade to
// recomputation: a corrupt or stale checkpoint must never wedge the suite.
func (s *Suite) restoreStage(stage string, into any) bool {
	if s.cfg.Checkpoint == "" {
		return false
	}
	ok, err := resilience.RestoreCheckpoint(s.cfg.Checkpoint, stage, s.cfg.seed(), s.cfg.Quick, into)
	return err == nil && ok
}

// saveStage appends a completed stage result to the checkpoint file.
func (s *Suite) saveStage(stage string, state any) error {
	if s.cfg.Checkpoint == "" {
		return nil
	}
	if err := resilience.SaveCheckpoint(s.cfg.Checkpoint, stage, s.cfg.seed(), s.cfg.Quick, state); err != nil {
		return fmt.Errorf("experiments: checkpoint %s: %w", stage, err)
	}
	return nil
}

// Extracted lazily extracts (and caches) the Angelov-class device. With a
// checkpoint file configured, a previously completed extraction for the
// same seed and mode is restored instead of recomputed.
func (s *Suite) Extracted() (*extract.Result, error) {
	if s.extracted != nil {
		return s.extracted, nil
	}
	var saved extract.Result
	if s.restoreStage("extract", &saved) && saved.Device != nil {
		s.extracted = &saved
		return s.extracted, nil
	}
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	res, err := extract.ThreeStep(ds, device.NewAngelov(), s.extractCfg(s.cfg.seed()))
	if err != nil {
		return nil, fmt.Errorf("experiments: extraction: %w", err)
	}
	if err := s.saveStage("extract", res); err != nil {
		return nil, err
	}
	s.extracted = &res
	return s.extracted, nil
}

// Designer lazily builds (and caches) the designer around the extracted
// device — the design flows uses the model, exactly as the paper does, and
// verification measures the golden truth.
func (s *Suite) Designer() (*core.Designer, error) {
	if s.designer != nil {
		return s.designer, nil
	}
	ex, err := s.Extracted()
	if err != nil {
		return nil, err
	}
	d := core.NewDesigner(core.NewBuilder(ex.Device))
	d.Workers = s.cfg.Workers
	if s.cfg.Quick {
		d.Spec.NPoints = 7
	}
	s.designer = d
	return d, nil
}

// Design lazily optimizes (and caches) the preamplifier design. With a
// checkpoint file configured, a previously completed design for the same
// seed and mode is restored instead of re-optimized.
func (s *Suite) Design() (*core.DesignResult, error) {
	if s.design != nil {
		return s.design, nil
	}
	var saved core.DesignResult
	if s.restoreStage("design", &saved) && saved.Evals > 0 {
		s.design = &saved
		return s.design, nil
	}
	d, err := s.Designer()
	if err != nil {
		return nil, err
	}
	res, err := d.Optimize(s.attainOpts(s.cfg.seed()))
	if err != nil {
		err = fmt.Errorf("experiments: design: %w", err)
		// A stopped search still carries the best design found so far:
		// hand it to the caller (uncached and uncheckpointed, so a later
		// run completes the work).
		if _, stopped := resilience.AsStopped(err); stopped && res.Evals > 0 {
			return &res, err
		}
		return nil, err
	}
	if err := s.saveStage("design", res); err != nil {
		return nil, err
	}
	s.design = &res
	return s.design, nil
}

// experimentEntry pairs an experiment identifier with its runner.
type experimentEntry struct {
	ID  string
	Run func() (Table, error)
}

// registry lists every experiment in canonical run order. It is the single
// source of truth for the valid experiment identifiers.
func (s *Suite) registry() []experimentEntry {
	return []experimentEntry{
		{"e1", s.E1ModelComparison},
		{"e2", s.E2ExtractionMethods},
		{"e3", s.E3ModelFit},
		{"e4", s.E4GoalAttainment},
		{"e4b", s.E4bAblation},
		{"e5", s.E5DesignFlow},
		{"e6", s.E6Verification},
		{"e7", s.E7Dispersion},
		{"e8", s.E8Intermodulation},
		{"e9", s.E9Constellations},
		{"e10", s.E10Calibration},
		{"e11", s.E11TwoStage},
		{"e12", s.E12LinkBudget},
	}
}

// IDs returns the experiment identifiers in canonical run order.
func (s *Suite) IDs() []string {
	entries := s.registry()
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}

// ErrUnknownExperiment reports an experiment id outside IDs().
var ErrUnknownExperiment = fmt.Errorf("experiments: unknown experiment")

// Run executes one experiment by id, wrapped in an "experiment.<id>" span
// whose eval count aggregates every objective evaluation the experiment
// consumed. Shared stages (campaign, extraction, design) are computed lazily
// and cached, so their cost is attributed to the first experiment that
// needs them.
func (s *Suite) Run(id string) (Table, error) {
	for _, e := range s.registry() {
		if e.ID == id {
			return s.runEntry(e)
		}
	}
	return Table{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
}

func (s *Suite) runEntry(e experimentEntry) (Table, error) {
	var before int64
	if s.tally != nil {
		before = s.tally.Evals()
	}
	spanObs, end := obs.StartSpan(s.fwd, "experiment."+e.ID)
	s.cur = spanObs
	var t Table
	var err error
	obs.ProfDo("experiment", e.ID, func(context.Context) {
		t, err = e.Run()
	})
	s.cur = nil
	if err != nil {
		return Table{}, err
	}
	var delta int64
	if s.tally != nil {
		delta = s.tally.Evals() - before
	}
	end(delta)
	return t, nil
}

// All runs every experiment in order.
func (s *Suite) All() ([]Table, error) {
	entries := s.registry()
	out := make([]Table, 0, len(entries))
	for _, e := range entries {
		t, err := s.runEntry(e)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

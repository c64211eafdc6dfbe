package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gnsslna/internal/noise"
	"gnsslna/internal/optim"
)

// TwoStage is a cascade of two single-stage amplifiers sharing the same
// transistor type: the topology for receivers that need more gain than one
// stage delivers (e.g. driving a long antenna cable). Friis makes the first
// stage dominate the noise and the second the gain, which is exactly how
// the goal weights are arranged in OptimizeTwoStage.
type TwoStage struct {
	// First and Second are the stages in signal order.
	First, Second *Amplifier
}

// BuildTwoStage materializes both stages from their designs.
func (b *Builder) BuildTwoStage(d1, d2 Design) (*TwoStage, error) {
	first, err := b.Build(d1)
	if err != nil {
		return nil, fmt.Errorf("core: two-stage first: %w", err)
	}
	second, err := b.Build(d2)
	if err != nil {
		return nil, fmt.Errorf("core: two-stage second: %w", err)
	}
	return &TwoStage{First: first, Second: second}, nil
}

// stageWorkspaces pairs one band workspace per stage. Pooling them
// together keeps each stage's chains compiled across calls: a single
// workspace shared by both stages would rebind, and recompile, on every
// alternation.
type stageWorkspaces struct {
	first, second BandWorkspace
}

var stagePool = sync.Pool{New: func() any { return new(stageWorkspaces) }}

// bind points the stage workspaces at t's stages.
func (ws *stageWorkspaces) bind(t *TwoStage) *stageWorkspaces {
	ws.first.bind(t.First)
	ws.second.bind(t.Second)
	return ws
}

// noisyAt returns the cascade's noisy two-port at f.
func (ws *stageWorkspaces) noisyAt(f float64) (noise.TwoPort, error) {
	n1, err := ws.first.noisyAt(f)
	if err != nil {
		return noise.TwoPort{}, err
	}
	n2, err := ws.second.noisyAt(f)
	if err != nil {
		return noise.TwoPort{}, err
	}
	return n1.Cascade(n2), nil
}

// metricsAt grades the cascade at an in-band frequency.
func (ws *stageWorkspaces) metricsAt(f, z0 float64) (PointMetrics, error) {
	tp, err := ws.noisyAt(f)
	if err != nil {
		return PointMetrics{}, err
	}
	return pointMetricsOf(tp, f, z0)
}

// muAt returns the cascade's mu at a stability frequency from the A-only
// product of both stages. noise.TwoPort.Cascade computes A as the same
// product, so this equals (==) metricsAt's Mu.
func (ws *stageWorkspaces) muAt(f, z0 float64) (float64, error) {
	a1, err := ws.first.abcdAt(f)
	if err != nil {
		return 0, err
	}
	a2, err := ws.second.abcdAt(f)
	if err != nil {
		return 0, err
	}
	return muOf(a1.Mul(a2), f, z0)
}

// NoisyAt returns the cascade as a noisy two-port at f.
func (t *TwoStage) NoisyAt(f float64) (noise.TwoPort, error) {
	ws := stagePool.Get().(*stageWorkspaces)
	defer stagePool.Put(ws)
	return ws.bind(t).noisyAt(f)
}

// MetricsAt evaluates the cascade at one frequency.
func (t *TwoStage) MetricsAt(f, z0 float64) (PointMetrics, error) {
	ws := stagePool.Get().(*stageWorkspaces)
	defer stagePool.Put(ws)
	return ws.bind(t).metricsAt(f, z0)
}

// PowerDissipation returns the combined DC power of both stages.
func (t *TwoStage) PowerDissipation() float64 {
	return t.First.PowerDissipation() + t.Second.PowerDissipation()
}

// TwoStageSpec extends the single-stage spec with cascade goals.
type TwoStageSpec struct {
	// Spec carries the band and match goals.
	Spec
	// GTMinDB overrides the gain goal for the cascade.
	GTMinDB float64
}

// DefaultTwoStageSpec targets 30 dB cascade gain at under 1 dB noise.
func DefaultTwoStageSpec() TwoStageSpec {
	s := DefaultSpec()
	s.PdcMaxW = 0.5
	return TwoStageSpec{Spec: s, GTMinDB: 30}
}

// TwoStageResult reports the cascade optimization.
type TwoStageResult struct {
	// D1 and D2 are the per-stage designs.
	D1, D2 Design
	// WorstNFdB, MinGTdB, StabMargin, PdcW grade the cascade over the band.
	WorstNFdB, MinGTdB, StabMargin, PdcW float64
	// Gamma is the attainment factor.
	Gamma float64
	// Evals counts band evaluations.
	Evals int
}

// OptimizeTwoStage selects both stages jointly (12 free parameters) with
// the improved goal-attainment method. The objective is bounded like
// Optimize's (see evaluateTwoStage), with no memo and no fault gate.
func (d *Designer) OptimizeTwoStage(spec TwoStageSpec, opts *optim.AttainOptions) (TwoStageResult, error) {
	lo1, hi1 := DesignBounds()
	lo := append(append([]float64(nil), lo1...), lo1...)
	hi := append(append([]float64(nil), hi1...), hi1...)
	grid, stabGrid := spec.points(), spec.stabPoints()
	goals := []optim.Goal{
		{Name: "NFmax", Target: spec.NFMaxDB, Weight: 0.5},
		{Name: "GTmin", Target: -spec.GTMinDB, Weight: 1},
		{Name: "stability", Target: -0.02, Weight: 0.5},
		{Name: "Pdc", Target: spec.PdcMaxW, Weight: 0.2},
	}
	// evals is atomic: the optimizer may fan the objective out over workers.
	var evals atomic.Int64
	obj := func(x []float64, exceeds func([]float64) bool) []float64 {
		evals.Add(1)
		t := trial{exceeds: exceeds, obj: make([]float64, len(goals))}
		ev, err := d.evaluateTwoStage(x, grid, stabGrid, &t)
		return t.vector(&ev, err)
	}
	res, err := attainBounded(obj, goals, lo, hi, opts)
	if err != nil {
		return TwoStageResult{}, fmt.Errorf("core: optimize two-stage: %w", err)
	}
	ev, err := d.evaluateTwoStage(res.X, grid, stabGrid, nil)
	if err != nil {
		return TwoStageResult{}, err
	}
	return TwoStageResult{
		D1:         DesignFromVector(res.X[:6]),
		D2:         DesignFromVector(res.X[6:]),
		WorstNFdB:  ev.WorstNFdB,
		MinGTdB:    ev.MinGTdB,
		StabMargin: ev.StabMargin,
		PdcW:       ev.PdcW,
		Gamma:      res.Gamma,
		Evals:      int(evals.Load()),
	}, nil
}

// evaluateTwoStage grades the cascade of the two stage designs in x over
// the grids through the objective loop (grade): the noisy cascade at the
// in-band points and the A-only mu of both stages on the stability scan.
// Only the in-band extremes, the stability margin and PdcW are set.
func (d *Designer) evaluateTwoStage(x, grid, stabGrid []float64, t *trial) (Evaluation, error) {
	ts, err := d.Builder.BuildTwoStage(DesignFromVector(x[:6]), DesignFromVector(x[6:]))
	if err != nil {
		return Evaluation{}, err
	}
	ws := stagePool.Get().(*stageWorkspaces)
	defer stagePool.Put(ws)
	ws.bind(ts)
	return grade(ws.metricsAt, ws.muAt, grid, stabGrid, d.z0(), Evaluation{PdcW: ts.PowerDissipation()}, nil, t)
}

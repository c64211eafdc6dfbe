package core

import (
	"fmt"
	"math"
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
	tp            []noise.TwoPort
}

var stagePool = sync.Pool{New: func() any { return new(stageWorkspaces) }}

// noisyBandInto writes the cascade's noisy two-port at every grid frequency
// into ws.tp, each stage riding the amplifier band kernel.
func (t *TwoStage) noisyBandInto(ws *stageWorkspaces, freqs []float64) error {
	if err := t.First.noisyBandInto(&ws.first, freqs); err != nil {
		return err
	}
	if err := t.Second.noisyBandInto(&ws.second, freqs); err != nil {
		return err
	}
	if cap(ws.tp) < len(freqs) {
		ws.tp = make([]noise.TwoPort, len(freqs))
	}
	ws.tp = ws.tp[:len(freqs)]
	for i := range freqs {
		ws.tp[i] = ws.first.amp[i].Cascade(ws.second.amp[i])
	}
	return nil
}

// NoisyAt returns the cascade as a noisy two-port at f, a 1-point view of
// the band kernel.
func (t *TwoStage) NoisyAt(f float64) (noise.TwoPort, error) {
	ws := stagePool.Get().(*stageWorkspaces)
	defer stagePool.Put(ws)
	freqs := [1]float64{f}
	if err := t.noisyBandInto(ws, freqs[:]); err != nil {
		return noise.TwoPort{}, err
	}
	return ws.tp[0], nil
}

// MetricsAt evaluates the cascade at one frequency.
func (t *TwoStage) MetricsAt(f, z0 float64) (PointMetrics, error) {
	tp, err := t.NoisyAt(f)
	if err != nil {
		return PointMetrics{}, err
	}
	return pointMetricsOf(tp, f, z0)
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
// the improved goal-attainment method.
func (d *Designer) OptimizeTwoStage(spec TwoStageSpec, opts *optim.AttainOptions) (TwoStageResult, error) {
	lo1, hi1 := DesignBounds()
	lo := append(append([]float64(nil), lo1...), lo1...)
	hi := append(append([]float64(nil), hi1...), hi1...)
	// One kernel pass grades the in-band points followed by the stability
	// scan.
	grid := spec.points()
	nBand := len(grid)
	grid = append(grid, spec.stabPoints()...)
	// evals is atomic: the optimizer may fan the objective out over workers.
	var evals atomic.Int64

	evaluate := func(x []float64) (nf, gt, margin, pdc float64, err error) {
		ts, err := d.Builder.BuildTwoStage(DesignFromVector(x[:6]), DesignFromVector(x[6:]))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ws := stagePool.Get().(*stageWorkspaces)
		defer stagePool.Put(ws)
		if err := ts.noisyBandInto(ws, grid); err != nil {
			return 0, 0, 0, 0, err
		}
		nf, gt, margin = math.Inf(-1), math.Inf(1), math.Inf(1)
		for i, f := range grid {
			m, err := pointMetricsOf(ws.tp[i], f, d.z0())
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if i < nBand {
				nf = math.Max(nf, m.NFdB)
				gt = math.Min(gt, m.GTdB)
			}
			margin = math.Min(margin, m.Mu-1)
		}
		return nf, gt, margin, ts.PowerDissipation(), nil
	}

	obj := func(x []float64) []float64 {
		evals.Add(1)
		nf, gt, margin, pdc, err := evaluate(x)
		if err != nil {
			return []float64{99, 99, 99, 99}
		}
		out := []float64{nf, -gt, -margin, pdc}
		if margin <= 0 {
			pen := 50 * (0.02 - margin)
			for i := range out {
				out[i] += pen
			}
		}
		return out
	}
	goals := []optim.Goal{
		{Name: "NFmax", Target: spec.NFMaxDB, Weight: 0.5},
		{Name: "GTmin", Target: -spec.GTMinDB, Weight: 1},
		{Name: "stability", Target: -0.02, Weight: 0.5},
		{Name: "Pdc", Target: spec.PdcMaxW, Weight: 0.2},
	}
	res, err := optim.GoalAttainImproved(obj, goals, lo, hi, opts)
	if err != nil {
		return TwoStageResult{}, fmt.Errorf("core: optimize two-stage: %w", err)
	}
	nf, gt, margin, pdc, err := evaluate(res.X)
	if err != nil {
		return TwoStageResult{}, err
	}
	return TwoStageResult{
		D1:         DesignFromVector(res.X[:6]),
		D2:         DesignFromVector(res.X[6:]),
		WorstNFdB:  nf,
		MinGTdB:    gt,
		StabMargin: margin,
		PdcW:       pdc,
		Gamma:      res.Gamma,
		Evals:      int(evals.Load()),
	}, nil
}

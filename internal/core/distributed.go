package core

import (
	"fmt"
	"math"

	"gnsslna/internal/device"
	"gnsslna/internal/optim"
	"gnsslna/internal/rfpassive"
)

// DistributedDesign is the parameter vector of the transmission-line
// matching variant: instead of chip L/C, series microstrip line sections
// and open-circuited shunt stubs (attached through T-junctions) form the
// matching networks — the element family the paper's passive equations
// target.
type DistributedDesign struct {
	// Vgs and Vds set the transistor operating point.
	Vgs, Vds float64
	// LDegen is the source-degeneration inductance (realized as a shorted
	// stub / via inductance).
	LDegen float64
	// LenIn and StubIn are the input series-line and open-stub lengths in
	// meters.
	LenIn, StubIn float64
	// LenOut and StubOut are the output series-line and open-stub lengths.
	LenOut, StubOut float64
}

// Vector flattens the design for the optimizers.
func (d DistributedDesign) Vector() []float64 {
	return []float64{d.Vgs, d.Vds, d.LDegen, d.LenIn, d.StubIn, d.LenOut, d.StubOut}
}

// DistributedFromVector rebuilds a DistributedDesign from a vector.
func DistributedFromVector(x []float64) DistributedDesign {
	return DistributedDesign{
		Vgs: x[0], Vds: x[1], LDegen: x[2],
		LenIn: x[3], StubIn: x[4], LenOut: x[5], StubOut: x[6],
	}
}

// DistributedBounds returns the optimizer search box. Stub and line lengths
// stay below a quarter wave at the band top.
func DistributedBounds() (lo, hi []float64) {
	return []float64{0.28, 1.5, 0.05e-9, 0.5e-3, 0.5e-3, 0.5e-3, 0.5e-3},
		[]float64{0.72, 4.2, 2.5e-9, 30e-3, 24e-3, 30e-3, 24e-3}
}

// openStub builds an open-circuited shunt stub hanging off a T-junction,
// with the physical length corrected for the open-end fringing extension so
// the electrical length matches the requested one.
func openStub(sub rfpassive.Substrate, wMain, wStub, length float64) rfpassive.Tee {
	return rfpassive.Tee{
		Sub:        sub,
		WMain:      wMain,
		WBranch:    wStub,
		Branch:     rfpassive.OpenStubWithEnd(sub, wStub, length),
		BranchLoad: complex(1e9, 0), // open end
	}
}

// BuildDistributed materializes the transmission-line variant of the
// amplifier. Its bias tees, stabilizer and DC blocks are the builder's
// shared parts, the same ones Build uses.
func (b *Builder) BuildDistributed(d DistributedDesign) (*Amplifier, error) {
	if b.Dev == nil {
		return nil, fmt.Errorf("core: builder has no device")
	}
	g, err := b.parts()
	if err == nil {
		err = g.distErr
	}
	if err != nil {
		return nil, fmt.Errorf("core: substrate: %w", err)
	}
	dev := *b.Dev
	dev.Ext.Ls += d.LDegen

	input := rfpassive.Chain{
		g.dcBlock,
		rfpassive.Line{Sub: b.Sub, W: g.wSeries, Len: d.LenIn, Dispersion: true},
		openStub(b.Sub, g.w50, g.wStub, d.StubIn),
		g.inTee,
	}
	output := rfpassive.Chain{
		g.stab,
		g.outTee,
		rfpassive.Line{Sub: b.Sub, W: g.wSeries, Len: d.LenOut, Dispersion: true},
		openStub(b.Sub, g.w50, g.wStub, d.StubOut),
		g.dcBlock,
	}

	return &Amplifier{
		Dev:    &dev,
		Bias:   device.Bias{Vgs: d.Vgs, Vds: d.Vds},
		Input:  input,
		Output: output,
		Design: Design{Vgs: d.Vgs, Vds: d.Vds, LDegen: d.LDegen},
	}, nil
}

// EvaluateDistributed computes the band evaluation of a distributed design.
func (d *Designer) EvaluateDistributed(x DistributedDesign) (Evaluation, error) {
	return d.evaluateDistributed(x, nil)
}

// evaluateDistributed is EvaluateDistributed for an optional
// goal-attainment trial t (see evaluateAmp).
func (d *Designer) evaluateDistributed(x DistributedDesign, t *trial) (Evaluation, error) {
	d.evals.Add(1)
	amp, err := d.Builder.BuildDistributed(x)
	if err != nil {
		return Evaluation{}, err
	}
	return d.evaluateAmp(amp, Design{Vgs: x.Vgs, Vds: x.Vds, LDegen: x.LDegen}, t)
}

// DistributedResult reports the distributed-topology optimization.
type DistributedResult struct {
	// Design is the optimized distributed design.
	Design DistributedDesign
	// Eval grades it over the band.
	Eval Evaluation
	// Gamma is the attainment factor.
	Gamma float64
	// Evals counts band evaluations.
	Evals int
}

// OptimizeDistributed selects the operating point and line/stub lengths
// with the improved goal-attainment method. The objective is bounded like
// Optimize's, with no memo and no fault gate.
func (d *Designer) OptimizeDistributed(opts *optim.AttainOptions) (DistributedResult, error) {
	d.evals.Store(0)
	lo, hi := DistributedBounds()
	obj := func(x []float64, exceeds func([]float64) bool) []float64 {
		t := trial{exceeds: exceeds, obj: make([]float64, len(unusable))}
		ev, err := d.evaluateDistributed(DistributedFromVector(x), &t)
		return t.vector(&ev, err)
	}
	res, err := attainBounded(obj, d.goals(), lo, hi, opts)
	if err != nil {
		return DistributedResult{}, fmt.Errorf("core: optimize distributed: %w", err)
	}
	best := DistributedFromVector(res.X)
	ev, err := d.EvaluateDistributed(best)
	if err != nil {
		return DistributedResult{}, err
	}
	return DistributedResult{
		Design: best,
		Eval:   ev,
		Gamma:  res.Gamma,
		Evals:  int(d.evals.Load()),
	}, nil
}

// QuarterWaveLength returns the quarter wavelength on the builder substrate
// at f for a 50-ohm line, a convenience for reports.
func (b *Builder) QuarterWaveLength(f float64) (float64, error) {
	w50, err := b.Sub.WidthForZ0(50)
	if err != nil {
		return 0, err
	}
	e := b.Sub.EpsEff(w50, f, true)
	const c0 = 299792458.0
	return c0 / (4 * f * math.Sqrt(e)), nil
}

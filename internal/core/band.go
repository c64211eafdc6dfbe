package core

import (
	"fmt"
	"sync"

	"gnsslna/internal/device"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// The evaluation engine grades an amplifier one frequency at a time: the
// matching networks are compiled once (rfpassive.CompiledChain) and the
// device's bias-dependent small-signal model is hoisted out of every
// frequency loop (device.BandState). Every view, the two-stage cascade and
// every design flow ride BandWorkspace's per-point methods.

// BandWorkspace holds the per-point path of one amplifier: its compiled
// chains, its device's bias state and the evaluation scratch. A zero
// workspace is ready to use; reusing one across calls with the same
// amplifier makes the steady state allocation-free. Not safe for
// concurrent use.
type BandWorkspace struct {
	// forAmp keys the compiled chains: compilation reruns when the
	// workspace is pointed at a different amplifier.
	forAmp      *Amplifier
	ccIn, ccOut rfpassive.CompiledChain
	st          device.BandState

	// pts is Designer.evaluateAmp's in-band metrics scratch.
	pts []PointMetrics
}

var bandPool = sync.Pool{New: func() any { return new(BandWorkspace) }}

func getBandWorkspace() *BandWorkspace   { return bandPool.Get().(*BandWorkspace) }
func putBandWorkspace(ws *BandWorkspace) { bandPool.Put(ws) }

// bind points the workspace at a, compiling its chains when a is new, and
// hoists a's bias state.
func (ws *BandWorkspace) bind(a *Amplifier) *BandWorkspace {
	if ws.forAmp != a {
		ws.forAmp = a
		ws.ccIn.Compile(a.Input)
		ws.ccOut.Compile(a.Output)
	}
	ws.st = a.Dev.BandStateAt(a.Bias)
	return ws
}

// noisyAt returns the amplifier's noisy two-port at f: the embedded device
// between the compiled input and output chains.
func (ws *BandWorkspace) noisyAt(f float64) (noise.TwoPort, error) {
	a := ws.forAmp
	dev, err := a.Dev.NoisyAtState(ws.st, a.Bias, f)
	if err != nil {
		return noise.TwoPort{}, err
	}
	return ws.ccIn.NoisyAt(f).Cascade(dev).Cascade(ws.ccOut.NoisyAt(f)), nil
}

// abcdAt returns only the chain matrix of noisyAt(f), equal (==) to its A:
// S (hence mu) depends on the chain matrices alone, so the stability scan
// skips the noise-correlation congruences, most of noisyAt's cost. It
// fails exactly where noisyAt does.
func (ws *BandWorkspace) abcdAt(f float64) (twoport.Mat2, error) {
	aDev, err := ws.forAmp.Dev.ABCDAtState(ws.st, f)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return ws.ccIn.ABCDAt(f).Mul(aDev).Mul(ws.ccOut.ABCDAt(f)), nil
}

// metricsAt grades the amplifier at an in-band frequency.
func (ws *BandWorkspace) metricsAt(f, z0 float64) (PointMetrics, error) {
	tp, err := ws.noisyAt(f)
	if err != nil {
		return PointMetrics{}, err
	}
	return pointMetricsOf(tp, f, z0)
}

// sAt returns the amplifier's S-parameters at f.
func (ws *BandWorkspace) sAt(f, z0 float64) (twoport.Mat2, error) {
	tp, err := ws.noisyAt(f)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return sOf(tp.A, f, z0)
}

// muAt returns the mu source-stability factor at a stability frequency on
// the A-only path, equal (==) to metricsAt's Mu.
func (ws *BandWorkspace) muAt(f, z0 float64) (float64, error) {
	a, err := ws.abcdAt(f)
	if err != nil {
		return 0, err
	}
	return muOf(a, f, z0)
}

// sOf converts a chain matrix at f to S, naming f in the error.
func sOf(a twoport.Mat2, f, z0 float64) (twoport.Mat2, error) {
	s, err := twoport.ABCDToS(a, z0)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("core: S at %g Hz: %w", f, err)
	}
	return s, nil
}

// muOf returns the mu source-stability factor of a chain matrix at f.
func muOf(a twoport.Mat2, f, z0 float64) (float64, error) {
	s, err := sOf(a, f, z0)
	if err != nil {
		return 0, err
	}
	return twoport.MuSource(s), nil
}

// MetricsBandInto evaluates the amplifier at every frequency of the grid,
// writing into dst (same length as freqs).
func (a *Amplifier) MetricsBandInto(ws *BandWorkspace, dst []PointMetrics, freqs []float64, z0 float64) error {
	ws.bind(a)
	for i, f := range freqs {
		m, err := ws.metricsAt(f, z0)
		if err != nil {
			return err
		}
		dst[i] = m
	}
	return nil
}

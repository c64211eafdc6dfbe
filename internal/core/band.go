package core

import (
	"fmt"
	"sync"

	"gnsslna/internal/device"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// The band engine evaluates an amplifier over a whole frequency grid in
// structure-of-arrays slabs: the matching networks are compiled once
// (rfpassive.CompiledChain) and the device's bias-dependent small-signal
// model is hoisted out of the grid loop (device.BandState). noisyBandInto is
// the one kernel: Sweep, Network, GroupDelay, Designer.Evaluate and the
// two-stage cascade ride it, and the per-point NoisyAt, SAt and MetricsAt
// are 1-point views of it. The stability scan's A-only path (muBandInto)
// replays the kernel's chain-matrix arithmetic without the noise
// bookkeeping.

// BandWorkspace holds the reusable slabs of one band evaluation. A zero
// workspace is ready to use; reusing one across calls with the same
// amplifier and grid size makes the steady state allocation-free. Not safe
// for concurrent use.
type BandWorkspace struct {
	// forAmp keys the compiled chains: compilation reruns when the
	// workspace is pointed at a different amplifier.
	forAmp      *Amplifier
	ccIn, ccOut rfpassive.CompiledChain

	in, out, dev, amp []noise.TwoPort
	abcd              []twoport.Mat2

	// pts and mus are Designer.evaluateAmp's scratch: the in-band metrics
	// and the stability scan's mu.
	pts []PointMetrics
	mus []float64
}

var bandPool = sync.Pool{New: func() any { return new(BandWorkspace) }}

func getBandWorkspace() *BandWorkspace   { return bandPool.Get().(*BandWorkspace) }
func putBandWorkspace(ws *BandWorkspace) { bandPool.Put(ws) }

// ensure binds the workspace to a and sizes the noisy-two-port slabs for n
// points.
func (ws *BandWorkspace) ensure(a *Amplifier, n int) {
	if ws.forAmp != a {
		ws.forAmp = a
		ws.ccIn.Compile(a.Input)
		ws.ccOut.Compile(a.Output)
	}
	if cap(ws.in) < n {
		ws.in = make([]noise.TwoPort, n)
		ws.out = make([]noise.TwoPort, n)
		ws.dev = make([]noise.TwoPort, n)
		ws.amp = make([]noise.TwoPort, n)
	}
	ws.in = ws.in[:n]
	ws.out = ws.out[:n]
	ws.dev = ws.dev[:n]
	ws.amp = ws.amp[:n]
}

// ensureABCD additionally sizes the chain-matrix slabs used by the A-only
// stability path (three consecutive sections of one backing slab).
func (ws *BandWorkspace) ensureABCD(a *Amplifier, n int) {
	if ws.forAmp != a {
		ws.ensure(a, 0)
	}
	if cap(ws.abcd) < 3*n {
		ws.abcd = make([]twoport.Mat2, 3*n)
	}
	ws.abcd = ws.abcd[:3*n]
}

// metricsScratch binds the workspace to a and returns its metrics scratch
// sized for n points.
func (ws *BandWorkspace) metricsScratch(a *Amplifier, n int) []PointMetrics {
	if ws.forAmp != a {
		ws.ensure(a, 0)
	}
	if cap(ws.pts) < n {
		ws.pts = make([]PointMetrics, n)
	}
	return ws.pts[:n]
}

// muScratch returns the workspace's mu scratch sized for n points.
func (ws *BandWorkspace) muScratch(n int) []float64 {
	if cap(ws.mus) < n {
		ws.mus = make([]float64, n)
	}
	return ws.mus[:n]
}

// metricsAtState grades one frequency on the kernel's per-point path: the
// embedded device from its hoisted bias state, the compiled chains, the
// cascade and the metrics, each equal (==) to the band kernel's value at
// f. ws must be bound to a.
func (a *Amplifier) metricsAtState(ws *BandWorkspace, st device.BandState, f, z0 float64) (PointMetrics, error) {
	dev, err := a.Dev.NoisyAtState(st, a.Bias, f)
	if err != nil {
		return PointMetrics{}, err
	}
	return pointMetricsOf(ws.ccIn.NoisyAt(f).Cascade(dev).Cascade(ws.ccOut.NoisyAt(f)), f, z0)
}

// noisyBandInto is the band kernel: it writes the complete amplifier's
// noisy two-port at every grid frequency into ws.amp.
func (a *Amplifier) noisyBandInto(ws *BandWorkspace, freqs []float64) error {
	ws.ensure(a, len(freqs))
	if err := a.Dev.NoisyBandInto(ws.dev, a.Bias, freqs); err != nil {
		return err
	}
	ws.ccIn.NoisyBand(ws.in, freqs)
	ws.ccOut.NoisyBand(ws.out, freqs)
	for i := range freqs {
		ws.amp[i] = ws.in[i].Cascade(ws.dev[i]).Cascade(ws.out[i])
	}
	return nil
}

// MetricsBandInto evaluates the amplifier at every frequency of the grid,
// writing into dst (same length as freqs).
func (a *Amplifier) MetricsBandInto(ws *BandWorkspace, dst []PointMetrics, freqs []float64, z0 float64) error {
	if err := a.noisyBandInto(ws, freqs); err != nil {
		return err
	}
	for i, f := range freqs {
		m, err := pointMetricsOf(ws.amp[i], f, z0)
		if err != nil {
			return err
		}
		dst[i] = m
	}
	return nil
}

// sBandInto writes the amplifier S-parameters at every grid frequency into
// dst.
func (a *Amplifier) sBandInto(ws *BandWorkspace, dst []twoport.Mat2, freqs []float64, z0 float64) error {
	if err := a.noisyBandInto(ws, freqs); err != nil {
		return err
	}
	for i, f := range freqs {
		s, err := ws.amp[i].S(z0)
		if err != nil {
			return fmt.Errorf("core: S at %g Hz: %w", f, err)
		}
		dst[i] = s
	}
	return nil
}

// muBandInto writes the mu source-stability factor at every grid frequency
// into dst via the A-only fast path: S (hence mu) depends only on the chain
// matrices, so the noise-correlation congruences — most of the kernel's
// cost — are skipped. device.EmbedABCD and the compiled chains replay the
// kernel's A-side arithmetic exactly, so each mu equals (==) the MetricsAt
// Mu at that frequency, and a point fails here exactly when it fails there.
func (a *Amplifier) muBandInto(ws *BandWorkspace, dst []float64, freqs []float64, z0 float64) error {
	n := len(freqs)
	ws.ensureABCD(a, n)
	aIn, aDev, aOut := ws.abcd[:n], ws.abcd[n:2*n], ws.abcd[2*n:]
	if err := a.Dev.ABCDBandInto(aDev, a.Bias, freqs); err != nil {
		return err
	}
	ws.ccIn.ABCDBand(aIn, freqs)
	ws.ccOut.ABCDBand(aOut, freqs)
	for i, f := range freqs {
		s, err := twoport.ABCDToS(aIn[i].Mul(aDev[i]).Mul(aOut[i]), z0)
		if err != nil {
			return fmt.Errorf("core: S at %g Hz: %w", f, err)
		}
		dst[i] = twoport.MuSource(s)
	}
	return nil
}

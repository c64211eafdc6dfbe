package mna

import (
	"errors"
	"fmt"
	"math"
)

// TransientCircuit is a nonlinear time-domain circuit: resistors,
// capacitors, inductors, FETs and time-dependent sources, integrated with
// the trapezoidal rule and a Newton solve per step. The design flow uses it
// to check the bias network's power-up behaviour (supply ramp, decoupling
// charge, gate overshoot) that no frequency-domain view can show.
type TransientCircuit struct {
	network
}

// NewTransient returns an empty transient circuit.
func NewTransient() *TransientCircuit { return &TransientCircuit{} }

// AddC places a capacitor between a and b (initially discharged).
func (c *TransientCircuit) AddC(a, b string, farads float64) {
	c.caps = append(c.caps, capacitor{a: c.node(a), b: c.node(b), farads: farads})
}

// AddL places an inductor between a and b (initially currentless).
func (c *TransientCircuit) AddL(a, b string, henries float64) {
	c.inds = append(c.inds, inductor{a: c.node(a), b: c.node(b), henries: henries})
}

// AddV places a time-dependent voltage source.
func (c *TransientCircuit) AddV(plus, minus string, volts func(t float64) float64) {
	c.vsources = append(c.vsources, vsource{c.node(plus), c.node(minus), signal{fn: volts}})
}

// AddI places a time-dependent current source driving from a to b.
func (c *TransientCircuit) AddI(a, b string, amps func(t float64) float64) {
	c.isources = append(c.isources, isource{c.node(a), c.node(b), signal{fn: amps}})
}

// RampV returns a supply that ramps linearly from 0 to v over rise seconds.
func RampV(v, rise float64) func(t float64) float64 {
	return func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		if t >= rise {
			return v
		}
		return v * t / rise
	}
}

// StepV returns an ideal step to v at t = 0.
func StepV(v float64) func(t float64) float64 {
	return func(t float64) float64 {
		if t < 0 {
			return 0
		}
		return v
	}
}

// Waveform is one node's sampled response.
type Waveform struct {
	// Times holds the sample instants.
	Times []float64
	// V holds the node voltage at each instant.
	V []float64
}

// ErrTransientDiverged reports a Newton failure during integration.
var ErrTransientDiverged = errors.New("mna: transient Newton diverged")

// Run integrates from 0 to tEnd with fixed step h and returns the waveform
// of every requested node. Each call starts from the initial state, with
// the capacitors discharged and the inductors currentless, so a second run
// repeats the first.
func (c *TransientCircuit) Run(tEnd, h float64, watch []string) (map[string]*Waveform, error) {
	n := len(c.nodeNames)
	if n == 0 {
		return nil, errors.New("mna: empty transient circuit")
	}
	if h <= 0 || tEnd <= 0 {
		return nil, fmt.Errorf("mna: invalid transient window (%g, %g)", tEnd, h)
	}
	for _, w := range watch {
		if _, ok := c.nodeIndex[w]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, w)
		}
	}
	for k := range c.caps {
		c.caps[k].vPrev, c.caps[k].iPrev = 0, 0
	}
	for k := range c.inds {
		c.inds[k].vPrev, c.inds[k].iPrev = 0, 0
	}
	x := make([]float64, n+len(c.vsources))
	out := make(map[string]*Waveform, len(watch))
	for _, w := range watch {
		out[w] = &Waveform{}
	}
	record := func(t float64) {
		for _, w := range watch {
			wf := out[w]
			wf.Times = append(wf.Times, t)
			wf.V = append(wf.V, x[c.nodeIndex[w]])
		}
	}
	record(0)

	const (
		maxIter = 80
		tol     = 1e-9
		maxStep = 1.0 // volts per Newton step on any node (damping)
	)
	steps := int(math.Ceil(tEnd / h))
	for s := 1; s <= steps; s++ {
		t := float64(s) * h
		// Newton solve for this step, warm-started from the previous one.
		converged, _, err := c.newton(x, t, h, maxIter, tol, maxStep)
		if err != nil {
			return nil, fmt.Errorf("mna: transient Jacobian at t=%g: %w", t, err)
		}
		if !converged {
			return nil, fmt.Errorf("%w at t=%g", ErrTransientDiverged, t)
		}
		c.commit(x, h)
		record(t)
	}
	return out, nil
}

// Final returns the last sample of a waveform.
func (w *Waveform) Final() float64 {
	if len(w.V) == 0 {
		return math.NaN()
	}
	return w.V[len(w.V)-1]
}

// Max returns the largest sample of a waveform.
func (w *Waveform) Max() float64 {
	m := math.Inf(-1)
	for _, v := range w.V {
		m = math.Max(m, v)
	}
	return m
}

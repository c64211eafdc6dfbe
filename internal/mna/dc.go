package mna

import (
	"errors"
	"fmt"

	"gnsslna/internal/device"
)

// ErrNoConvergence reports a Newton iteration that failed to settle.
var ErrNoConvergence = errors.New("mna: DC Newton iteration did not converge")

// DCCircuit is a nonlinear DC circuit solved by Newton-Raphson on the
// modified nodal equations: resistors, current and voltage sources, and
// FETs described by any device.DCModel. It computes the true operating
// point of the amplifier's bias network — divider, feed resistors and the
// transistor's own I-V feedback — rather than assuming ideal bias voltages.
type DCCircuit struct {
	network
}

// NewDC returns an empty DC circuit.
func NewDC() *DCCircuit { return &DCCircuit{} }

// AddI places a DC current source driving amps from node a to node b.
func (c *DCCircuit) AddI(a, b string, amps float64) {
	c.isources = append(c.isources, isource{c.node(a), c.node(b), signal{dc: amps}})
}

// AddV places an ideal DC voltage source of volts between plus and minus.
func (c *DCCircuit) AddV(plus, minus string, volts float64) {
	c.vsources = append(c.vsources, vsource{c.node(plus), c.node(minus), signal{dc: volts}})
}

// OperatingPoint solves the nonlinear DC equations and returns the node
// voltages by name.
func (c *DCCircuit) OperatingPoint() (map[string]float64, error) {
	n := len(c.nodeNames)
	if n == 0 {
		return nil, errors.New("mna: empty DC circuit")
	}
	const (
		maxIter = 200
		tol     = 1e-10
		maxStep = 0.5 // volts per Newton step on any node (damping)
	)
	x := make([]float64, n+len(c.vsources)) // node voltages then source currents
	converged, iter, err := c.newton(x, 0, 0, maxIter, tol, maxStep)
	if err != nil {
		return nil, fmt.Errorf("mna: DC Jacobian singular at iteration %d: %w", iter, err)
	}
	if !converged {
		return nil, ErrNoConvergence
	}
	out := make(map[string]float64, n)
	for i, name := range c.nodeNames {
		out[name] = x[i]
	}
	return out, nil
}

// FETBias reports the operating point of the k-th FET after a solve.
func (c *DCCircuit) FETBias(voltages map[string]float64, k int) (device.Bias, float64, error) {
	if k < 0 || k >= len(c.fets) {
		return device.Bias{}, 0, fmt.Errorf("mna: no FET %d", k)
	}
	t := c.fets[k]
	get := func(idx int) float64 {
		if idx < 0 {
			return 0
		}
		return voltages[c.nodeNames[idx]]
	}
	b := device.Bias{
		Vgs: get(t.gate) - get(t.src),
		Vds: get(t.drain) - get(t.src),
	}
	return b, t.model.Ids(b.Vgs, b.Vds), nil
}

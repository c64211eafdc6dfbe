package mna

import (
	"math"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
)

// network is the element set of the nonlinear circuits. DCCircuit holds
// resistors, sources and FETs; TransientCircuit adds capacitors and
// inductors. One Newton kernel (newton) solves the modified nodal
// equations of both.
type network struct {
	nodeTable

	resistors []resistor
	caps      []capacitor
	inds      []inductor
	fets      []fet
	isources  []isource
	vsources  []vsource
}

type resistor struct {
	a, b int
	g    float64
}

// capacitor and inductor carry the voltage and current of the last
// accepted transient step, the state of their trapezoidal companions.
type capacitor struct {
	a, b                 int
	farads, vPrev, iPrev float64
}

type inductor struct {
	a, b                  int
	henries, vPrev, iPrev float64
}

type fet struct {
	model            device.DCModel
	gate, drain, src int
}

type isource struct {
	a, b int // current flows from a to b through the source (into b)
	amps signal
}

type vsource struct {
	plus, minus int
	volts       signal
}

// signal is a source value: fn(t) when fn is set, else the constant dc,
// so a DC source costs no closure.
type signal struct {
	fn func(t float64) float64
	dc float64
}

func (s signal) at(t float64) float64 {
	if s.fn != nil {
		return s.fn(t)
	}
	return s.dc
}

// companion returns the element's voltage v at x and its trapezoidal
// companion over a step h about the last accepted state:
//
//	capacitor: i = Geq*v - (Geq*vPrev + iPrev), Geq = 2C/h
//	inductor:  i = Geq*v + (iPrev + Geq*vPrev), Geq = h/(2L)
func (c *capacitor) companion(x []float64, h float64) (v, geq, i float64) {
	v, geq = nodeV(x, c.a)-nodeV(x, c.b), 2*c.farads/h
	return v, geq, geq*v - (geq*c.vPrev + c.iPrev)
}

func (l *inductor) companion(x []float64, h float64) (v, geq, i float64) {
	v, geq = nodeV(x, l.a)-nodeV(x, l.b), h/(2*l.henries)
	return v, geq, geq*v + l.iPrev + geq*l.vPrev
}

// AddR places a resistor between nodes a and b.
func (c *network) AddR(a, b string, ohms float64) {
	c.resistors = append(c.resistors, resistor{c.node(a), c.node(b), 1 / ohms})
}

// AddFET places a transistor described by the DC model with its gate, drain
// and source terminals.
func (c *network) AddFET(m device.DCModel, gate, drain, src string) {
	c.fets = append(c.fets, fet{m, c.node(gate), c.node(drain), c.node(src)})
}

// nodeV is the voltage of node i in the unknown vector x (0 for ground).
func nodeV(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

// system is one Newton iterate's linearization at x: the Jacobian j and
// the residual f (KCL currents, then the voltage-source equations).
type system struct {
	x, f []float64
	j    *mathx.Matrix
}

// flow adds a current i from node a to node b to the residual.
func (s *system) flow(a, b int, i float64) {
	if a >= 0 {
		s.f[a] += i
	}
	if b >= 0 {
		s.f[b] += -i
	}
}

// branch stamps a two-terminal element carrying current i from a to b with
// incremental conductance g.
func (s *system) branch(a, b int, i, g float64) {
	s.flow(a, b, i)
	if a >= 0 {
		s.j.Add(a, a, g)
	}
	if b >= 0 {
		s.j.Add(b, b, g)
	}
	if a >= 0 && b >= 0 {
		s.j.Add(a, b, -g)
		s.j.Add(b, a, -g)
	}
}

// fet stamps the drain current Ids(vgs, vds), flowing drain to source, and
// its derivatives: dIds/dVg = gm, /dVd = gds, /dVs = -(gm+gds).
func (s *system) fet(t fet) {
	vs := nodeV(s.x, t.src)
	vgs, vds := nodeV(s.x, t.gate)-vs, nodeV(s.x, t.drain)-vs
	ids := t.model.Ids(vgs, vds)
	gm := device.Gm(t.model, vgs, vds)
	gds := device.Gds(t.model, vgs, vds)
	s.flow(t.drain, t.src, ids)
	stamp := func(row int, sign float64) {
		if row < 0 {
			return
		}
		if t.gate >= 0 {
			s.j.Add(row, t.gate, sign*gm)
		}
		if t.drain >= 0 {
			s.j.Add(row, t.drain, sign*gds)
		}
		if t.src >= 0 {
			s.j.Add(row, t.src, -sign*(gm+gds))
		}
	}
	stamp(t.drain, 1)
	stamp(t.src, -1)
}

// newton solves the network's equations at time t by damped Newton-Raphson,
// starting from x (node voltages, then the currents through the voltage
// sources) and leaving the last iterate there. With h > 0 capacitors and
// inductors enter as trapezoidal companions of step h; at h = 0 (DC) they
// are left out. A solve ends once the residual norm falls below tol, and
// each step is scaled so that no node moves more than maxStep volts. It
// reports whether it converged within maxIter iterations, or the iteration
// whose Jacobian could not be solved.
//
// Elements stamp in the order R, C, L, FET, I, V, which fixes the order of
// the floating-point sums in f and j.
func (c *network) newton(x []float64, t, h float64, maxIter int, tol, maxStep float64) (converged bool, iter int, err error) {
	n, dim := len(c.nodeNames), len(x)
	for ; iter < maxIter; iter++ {
		s := system{x: x, f: make([]float64, dim), j: mathx.NewMatrix(dim, dim)}
		for _, r := range c.resistors {
			s.branch(r.a, r.b, r.g*(nodeV(x, r.a)-nodeV(x, r.b)), r.g)
		}
		if h > 0 {
			for k := range c.caps {
				_, geq, i := c.caps[k].companion(x, h)
				s.branch(c.caps[k].a, c.caps[k].b, i, geq)
			}
			for k := range c.inds {
				_, geq, i := c.inds[k].companion(x, h)
				s.branch(c.inds[k].a, c.inds[k].b, i, geq)
			}
		}
		for _, m := range c.fets {
			s.fet(m)
		}
		for _, src := range c.isources {
			s.flow(src.a, src.b, src.amps.at(t))
		}
		for k, src := range c.vsources {
			row := n + k
			s.flow(src.plus, src.minus, x[row])
			if src.plus >= 0 {
				s.j.Add(src.plus, row, 1)
				s.j.Add(row, src.plus, 1)
			}
			if src.minus >= 0 {
				s.j.Add(src.minus, row, -1)
				s.j.Add(row, src.minus, -1)
			}
			s.f[row] = nodeV(x, src.plus) - nodeV(x, src.minus) - src.volts.at(t)
		}

		var rn float64
		for _, v := range s.f {
			rn += v * v
		}
		if math.Sqrt(rn) < tol {
			return true, iter, nil
		}
		// Newton step J dx = -f, damped.
		rhs := make([]float64, dim)
		for i := range s.f {
			rhs[i] = -s.f[i]
		}
		dx, err := mathx.SolveR(s.j, rhs)
		if err != nil {
			return false, iter, err
		}
		scale := 1.0
		for i := 0; i < n; i++ {
			if a := math.Abs(dx[i]); a > maxStep {
				scale = math.Min(scale, maxStep/a)
			}
		}
		for i := range x {
			x[i] += scale * dx[i]
		}
	}
	return false, iter, nil
}

// commit makes the solution x of a step of length h the state the
// capacitors' and inductors' next companions start from.
func (c *network) commit(x []float64, h float64) {
	for k := range c.caps {
		e := &c.caps[k]
		e.vPrev, _, e.iPrev = e.companion(x, h)
	}
	for k := range c.inds {
		e := &c.inds[k]
		e.vPrev, _, e.iPrev = e.companion(x, h)
	}
}

// Package mna is a complex-valued Modified Nodal Analysis engine for linear
// AC (small-signal) circuit analysis: the role a commercial circuit
// simulator plays in the paper. Circuits are built from stamped elements
// (R, L, C, arbitrary admittances, voltage-controlled current sources and
// transmission lines), solved at each frequency with dense LU, and reduced
// to two-port S-parameters. It provides an independent verification path
// for the chain-matrix composition used by the design flow. DCCircuit and
// TransientCircuit solve bias networks with FETs: one damped Newton kernel
// gives the DC operating point and each transient step.
package mna

import (
	"errors"
	"fmt"
	"math"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

// Ground is the name of the reference node.
const Ground = "0"

// ErrNoSuchNode reports a port referencing an undefined node.
var ErrNoSuchNode = errors.New("mna: node not defined by any element")

// Circuit is a netlist of linear elements between named nodes. A Circuit is
// not safe for concurrent use: Solve reuses internal per-order scratch
// (matrix, factorization, vectors) across calls, which is what keeps the
// per-frequency sweep loops allocation-free.
type Circuit struct {
	nodeTable
	elems []element

	// Per-order solver scratch, sized lazily on first Solve.
	y   *mathx.CMatrix
	lu  mathx.CLU
	rhs []complex128
	sol []complex128
}

// element stamps itself into the nodal admittance matrix at angular
// frequency w (rad/s). Index -1 denotes ground.
type element interface {
	stamp(y *mathx.CMatrix, w float64)
	describe() string
}

// New returns an empty circuit.
func New() *Circuit { return &Circuit{} }

// nodeTable maps node names to matrix indices for all three circuit types.
type nodeTable struct {
	nodeIndex map[string]int
	nodeNames []string
}

// node interns a node name and returns its matrix index (-1 for ground).
func (t *nodeTable) node(name string) int {
	if name == Ground || name == "gnd" || name == "GND" {
		return -1
	}
	if i, ok := t.nodeIndex[name]; ok {
		return i
	}
	if t.nodeIndex == nil {
		t.nodeIndex = make(map[string]int)
	}
	i := len(t.nodeNames)
	t.nodeIndex[name] = i
	t.nodeNames = append(t.nodeNames, name)
	return i
}

// NumNodes returns the number of non-ground nodes seen so far.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// twoNode is a generic branch admittance between two nodes.
type twoNode struct {
	a, b int
	y    func(w float64) complex128
	desc string
}

func (e twoNode) describe() string { return e.desc }

func (e twoNode) stamp(y *mathx.CMatrix, w float64) {
	v := e.y(w)
	if e.a >= 0 {
		y.Add(e.a, e.a, v)
	}
	if e.b >= 0 {
		y.Add(e.b, e.b, v)
	}
	if e.a >= 0 && e.b >= 0 {
		y.Add(e.a, e.b, -v)
		y.Add(e.b, e.a, -v)
	}
}

// AddR places a resistor of r ohms between nodes a and b.
func (c *Circuit) AddR(a, b string, r float64) {
	na, nb := c.node(a), c.node(b)
	c.elems = append(c.elems, twoNode{a: na, b: nb,
		y:    func(float64) complex128 { return complex(1/r, 0) },
		desc: fmt.Sprintf("R %s-%s %g", a, b, r)})
}

// AddC places a capacitor of f farads between nodes a and b.
func (c *Circuit) AddC(a, b string, farads float64) {
	na, nb := c.node(a), c.node(b)
	c.elems = append(c.elems, twoNode{a: na, b: nb,
		y:    func(w float64) complex128 { return complex(0, w*farads) },
		desc: fmt.Sprintf("C %s-%s %g", a, b, farads)})
}

// AddL places an inductor of h henries between nodes a and b.
func (c *Circuit) AddL(a, b string, h float64) {
	na, nb := c.node(a), c.node(b)
	c.elems = append(c.elems, twoNode{a: na, b: nb,
		y: func(w float64) complex128 {
			if w == 0 {
				return complex(1e12, 0) // DC short approximated
			}
			return 1 / complex(0, w*h)
		},
		desc: fmt.Sprintf("L %s-%s %g", a, b, h)})
}

// AddY places an arbitrary frequency-dependent admittance between nodes a
// and b. The function receives the frequency in Hz.
func (c *Circuit) AddY(a, b string, y func(fHz float64) complex128, desc string) {
	na, nb := c.node(a), c.node(b)
	c.elems = append(c.elems, twoNode{a: na, b: nb,
		y:    func(w float64) complex128 { return y(w / (2 * math.Pi)) },
		desc: desc})
}

// vccs is a voltage-controlled current source: current gm*exp(-jw tau) *
// (V(cp)-V(cm)) flows from dp to dm.
type vccs struct {
	cp, cm, dp, dm int
	gm             float64
	tau            float64
	desc           string
}

func (e vccs) describe() string { return e.desc }

func (e vccs) stamp(y *mathx.CMatrix, w float64) {
	g := complex(e.gm, 0)
	if e.tau != 0 {
		s, cth := math.Sincos(-w * e.tau)
		g *= complex(cth, s)
	}
	add := func(r, c int, v complex128) {
		if r >= 0 && c >= 0 {
			y.Add(r, c, v)
		}
	}
	add(e.dp, e.cp, g)
	add(e.dp, e.cm, -g)
	add(e.dm, e.cp, -g)
	add(e.dm, e.cm, g)
}

// AddVCCS places a voltage-controlled current source: a current
// gm*exp(-j w tau)*(V(cplus)-V(cminus)) flows from dplus to dminus.
func (c *Circuit) AddVCCS(cplus, cminus, dplus, dminus string, gm, tau float64) {
	c.elems = append(c.elems, vccs{
		cp: c.node(cplus), cm: c.node(cminus),
		dp: c.node(dplus), dm: c.node(dminus),
		gm: gm, tau: tau,
		desc: fmt.Sprintf("VCCS %s,%s->%s,%s gm=%g", cplus, cminus, dplus, dminus, gm),
	})
}

// tline stamps a two-conductor transmission line (both ports referenced to
// ground) via its Y-parameters.
type tline struct {
	a, b  int
	zc    func(fHz float64) complex128
	gamma func(fHz float64) complex128
	len   float64
	desc  string
}

func (e tline) describe() string { return e.desc }

func (e tline) stamp(y *mathx.CMatrix, w float64) {
	f := w / (2 * math.Pi)
	abcd := twoport.LineABCD(e.zc(f), e.gamma(f), e.len)
	ym, err := twoport.ABCDToY(abcd)
	if err != nil {
		// A zero-length line degenerates to a through: enormous coupling
		// admittance approximates it.
		ym = twoport.Mat2{{1e12, -1e12}, {-1e12, 1e12}}
	}
	idx := [2]int{e.a, e.b}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if idx[i] >= 0 && idx[j] >= 0 {
				y.Add(idx[i], idx[j], ym[i][j])
			}
		}
	}
}

// AddLine places a transmission line between nodes a and b (both referenced
// to ground) with frequency-dependent characteristic impedance and
// propagation constant.
func (c *Circuit) AddLine(a, b string, zc, gamma func(fHz float64) complex128, length float64) {
	c.elems = append(c.elems, tline{
		a: c.node(a), b: c.node(b), zc: zc, gamma: gamma, len: length,
		desc: fmt.Sprintf("TLINE %s-%s l=%g", a, b, length),
	})
}

// Netlist returns a human-readable listing of the circuit.
func (c *Circuit) Netlist() []string {
	out := make([]string, 0, len(c.elems))
	for _, e := range c.elems {
		out = append(out, e.describe())
	}
	return out
}

// ensureScratch sizes the per-order solver scratch for the current node
// count (matrix contents are left stale; callers Zero before stamping).
func (c *Circuit) ensureScratch() {
	n := len(c.nodeNames)
	if c.y == nil || c.y.Rows() != n {
		c.y = mathx.NewCMatrix(n, n)
		c.rhs = make([]complex128, n)
		c.sol = make([]complex128, n)
	}
}

// assemble builds the nodal admittance matrix at frequency f (Hz) by
// stamping every element in insertion order, reusing the circuit's scratch
// matrix when the order is unchanged.
func (c *Circuit) assemble(f float64) *mathx.CMatrix {
	c.ensureScratch()
	c.y.Zero()
	w := 2 * math.Pi * f
	for _, e := range c.elems {
		e.stamp(c.y, w)
	}
	return c.y
}

// Solve computes the node voltages for current injections given as a map of
// node name to injected current (amperes, into the node) at frequency f.
func (c *Circuit) Solve(f float64, injections map[string]complex128) (map[string]complex128, error) {
	n := len(c.nodeNames)
	if n == 0 {
		return nil, errors.New("mna: empty circuit")
	}
	y := c.assemble(f)
	for i := range c.rhs {
		c.rhs[i] = 0
	}
	for name, i := range injections {
		idx, ok := c.nodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, name)
		}
		c.rhs[idx] = i
	}
	if err := c.lu.Factorize(y); err != nil {
		return nil, fmt.Errorf("mna: solve at %g Hz: %w", f, err)
	}
	if err := c.lu.SolveInto(c.sol, c.rhs); err != nil {
		return nil, fmt.Errorf("mna: solve at %g Hz: %w", f, err)
	}
	out := make(map[string]complex128, n)
	for i, name := range c.nodeNames {
		out[name] = c.sol[i]
	}
	return out, nil
}

// ZParams computes the open-circuit impedance matrix looking into the named
// port nodes (each referenced to ground) at frequency f.
func (c *Circuit) ZParams(f float64, ports []string) (*mathx.CMatrix, error) {
	n := len(ports)
	z := mathx.NewCMatrix(n, n)
	for j, pj := range ports {
		v, err := c.Solve(f, map[string]complex128{pj: 1})
		if err != nil {
			return nil, err
		}
		for i, pi := range ports {
			vi, ok := v[pi]
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, pi)
			}
			z.Set(i, j, vi)
		}
	}
	return z, nil
}

// SParams2 computes two-port S-parameters between the two named port nodes
// over the frequency list, referenced to z0.
//
// The ports are driven terminated, not open-circuited: z0 is stamped at both
// port nodes and each column of S comes from one solve with a 1 V source
// behind z0 (S_ij = 2 V_i - delta_ij). Unlike the earlier Z-parameter
// reduction this stays well-posed for networks whose open-circuit parameters
// do not exist — a series-only ladder with no DC path to ground, or both
// ports on the same node — and it factorizes once per frequency instead of
// once per port. The ports are resolved once; each grid point then costs one
// assembly, one LU factorization and two solves against the reusable
// scratch.
func (c *Circuit) SParams2(freqs []float64, portIn, portOut string, z0 float64) (*twoport.Network, error) {
	in, ok := c.nodeIndex[portIn]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, portIn)
	}
	out, ok := c.nodeIndex[portOut]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, portOut)
	}
	ports := [2]int{in, out}
	g0 := complex(1/z0, 0)
	mats := make([]twoport.Mat2, len(freqs))
	for k, f := range freqs {
		y := c.assemble(f)
		for _, p := range ports {
			y.Add(p, p, g0)
		}
		if err := c.lu.Factorize(y); err != nil {
			return nil, fmt.Errorf("mna: solve at %g Hz: %w", f, err)
		}
		for j := 0; j < 2; j++ {
			for i := range c.rhs {
				c.rhs[i] = 0
			}
			c.rhs[ports[j]] += g0 // Norton equivalent of 1 V behind z0
			if err := c.lu.SolveInto(c.sol, c.rhs); err != nil {
				return nil, fmt.Errorf("mna: solve at %g Hz: %w", f, err)
			}
			for i := 0; i < 2; i++ {
				mats[k][i][j] = 2 * c.sol[ports[i]]
				if i == j {
					mats[k][i][j] -= 1
				}
			}
		}
	}
	return twoport.NewNetwork(z0, freqs, mats)
}

package noise

import "gnsslna/internal/twoport"

// In-place noisy cascades: the fast path the compiled passive chains and
// the per-point amplifier joins ride. Each updates a TwoPort through its
// pointer, so no 128-byte temporary is built, zeroed or copied per step.
// Each reproduces the generic Cascade exactly — the identical scalar
// arithmetic in the identical order — so results agree under == (which
// treats the two signed zeros as equal).

// CascadeSeries replaces n by the cascade of n followed by the noisy series
// impedance z whose normalized noise resistance is r (real(z)*T/T0, the CA
// [0][0] entry SeriesZ would carry).
//
// It is the specialized form of n.Cascade(SeriesZ(z, t)) for the elementary
// chain matrix [[1, z], [0, 1]] and the rank-one correlation [[r, 0], [0,
// 0]]: the full 2x2 products degenerate to terms multiplied by exact ones
// and zeros, which the specialization drops. For finite operands every
// surviving term is computed by the same operations in the same order as the
// generic path, so the results compare equal under ==. Where z or an entry
// of n is non-finite the two may differ (a product against an exact zero is
// NaN on the generic path); the result's chain matrix is then non-finite
// too, which is how the compiled chains detect that case after the fact.
//
// The update reads only A's first column, which it leaves unchanged, so
// writing in place needs no temporary.
func (n *TwoPort) CascadeSeries(z complex128, r float64) {
	rc := complex(r, 0)
	// t.Mul(mCA) keeps the products (a00*rc, a10*rc) as intermediates; the
	// second factor multiplies them by conj(a00), conj(a10) exactly as the
	// generic congruence does.
	a00, a10 := n.A[0][0], n.A[1][0]
	p0 := a00 * rc
	p1 := a10 * rc
	c00 := conj(a00)
	c10 := conj(a10)
	n.A[0][1] = a00*z + n.A[0][1]
	n.A[1][1] = a10*z + n.A[1][1]
	n.CA[0][0] = n.CA[0][0] + p0*c00
	n.CA[0][1] = n.CA[0][1] + p0*c10
	n.CA[1][0] = n.CA[1][0] + p1*c00
	n.CA[1][1] = n.CA[1][1] + p1*c10
}

// CascadeShunt replaces n by the cascade of n followed by the noisy shunt
// admittance y whose normalized noise conductance is g (real(y)*T/T0, the
// CA [1][1] entry ShuntY would carry).
//
// The specialized form of n.Cascade(ShuntY(y, t)) for the elementary chain
// matrix [[1, 0], [y, 1]] and the rank-one correlation [[0, 0], [0, g]],
// under the same finite-operand contract as CascadeSeries. It reads only
// A's second column, which it leaves unchanged.
func (n *TwoPort) CascadeShunt(y complex128, g float64) {
	gc := complex(g, 0)
	a01, a11 := n.A[0][1], n.A[1][1]
	q0 := a01 * gc
	q1 := a11 * gc
	c01 := conj(a01)
	c11 := conj(a11)
	n.A[0][0] = n.A[0][0] + a01*y
	n.A[1][0] = n.A[1][0] + a11*y
	n.CA[0][0] = n.CA[0][0] + q0*c01
	n.CA[0][1] = n.CA[0][1] + q0*c11
	n.CA[1][0] = n.CA[1][0] + q1*c01
	n.CA[1][1] = n.CA[1][1] + q1*c11
}

// CascadeWith replaces n by n.Cascade(*m), the generic join, with
// Cascade's expressions: the correlation term takes n's chain matrix before
// the product overwrites it. m may alias n. Cascade keeps its own body:
// routed through CascadeWith it zeroed and copied its 128-byte result and
// read 10-20% slower (BenchmarkCascadeNoisyTwoPorts).
func (n *TwoPort) CascadeWith(m *TwoPort) {
	ca := n.CA.Add(m.CA.Congruence(n.A))
	n.A = n.A.Mul(m.A)
	n.CA = ca
}

// Finite reports whether every entry of the two-port's chain matrix is
// finite, the condition under which the specialized elementary cascades
// equal the generic one.
func (n *TwoPort) Finite() bool {
	return finiteM(&n.A)
}

func finiteM(m *twoport.Mat2) bool {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			v := m[i][j]
			if !finite(real(v)) || !finite(imag(v)) {
				return false
			}
		}
	}
	return true
}

func finite(v float64) bool {
	// Inf - Inf and NaN both fail the self-subtraction test; avoids the
	// math.IsInf/IsNaN pair on the hot path.
	return v-v == 0
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

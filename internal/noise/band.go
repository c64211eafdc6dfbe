package noise

import "gnsslna/internal/twoport"

// Elementary noisy cascades: the fast path the compiled passive chains ride.
// Each reproduces the generic Cascade exactly — the identical scalar
// arithmetic in the identical order — so results agree under == (which
// treats the two signed zeros as equal).

// CascadeSeries returns the cascade of n followed by the noisy series
// impedance z whose normalized noise resistance is r (real(z)*T/T0, the CA
// [0][0] entry SeriesZ would carry).
//
// It is the specialized form of n.Cascade(SeriesZ(z, t)) for the elementary
// chain matrix [[1, z], [0, 1]] and the rank-one correlation [[r, 0], [0,
// 0]]: the full 2x2 products degenerate to terms multiplied by exact ones
// and zeros, which the specialization drops. For finite operands every
// surviving term is computed by the same operations in the same order as the
// generic path, so the results compare equal under ==. Callers must fall
// back to the generic Cascade when z or any entry of n is non-finite (a
// product against an exact zero would then be NaN on the generic path).
func (n TwoPort) CascadeSeries(z complex128, r float64) TwoPort {
	a := n.A
	rc := complex(r, 0)
	// t.Mul(mCA) keeps the products (a00*rc, a10*rc) as intermediates; the
	// second factor multiplies them by conj(a00), conj(a10) exactly as the
	// generic congruence does.
	p0 := a[0][0] * rc
	p1 := a[1][0] * rc
	c00 := conj(a[0][0])
	c10 := conj(a[1][0])
	return TwoPort{
		A: twoport.Mat2{
			{a[0][0], a[0][0]*z + a[0][1]},
			{a[1][0], a[1][0]*z + a[1][1]},
		},
		CA: twoport.Mat2{
			{n.CA[0][0] + p0*c00, n.CA[0][1] + p0*c10},
			{n.CA[1][0] + p1*c00, n.CA[1][1] + p1*c10},
		},
	}
}

// CascadeShunt returns the cascade of n followed by the noisy shunt
// admittance y whose normalized noise conductance is g (real(y)*T/T0, the CA
// [1][1] entry ShuntY would carry).
//
// The specialized form of n.Cascade(ShuntY(y, t)) for the elementary chain
// matrix [[1, 0], [y, 1]] and the rank-one correlation [[0, 0], [0, g]],
// under the same finite-operand contract as CascadeSeries.
func (n TwoPort) CascadeShunt(y complex128, g float64) TwoPort {
	a := n.A
	gc := complex(g, 0)
	q0 := a[0][1] * gc
	q1 := a[1][1] * gc
	c01 := conj(a[0][1])
	c11 := conj(a[1][1])
	return TwoPort{
		A: twoport.Mat2{
			{a[0][0] + a[0][1]*y, a[0][1]},
			{a[1][0] + a[1][1]*y, a[1][1]},
		},
		CA: twoport.Mat2{
			{n.CA[0][0] + q0*c01, n.CA[0][1] + q0*c11},
			{n.CA[1][0] + q1*c01, n.CA[1][1] + q1*c11},
		},
	}
}

// Finite reports whether every entry of the two-port's chain matrix is
// finite, the precondition for the specialized elementary cascades.
func (n TwoPort) Finite() bool {
	return finiteM(n.A)
}

func finiteM(m twoport.Mat2) bool {
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

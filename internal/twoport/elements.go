package twoport

import "math/cmplx"

// Ideal-element chain matrices. Dispersive, lossy physical components live in
// the rfpassive package; these primitives are the compositional vocabulary.

// SeriesZ returns the ABCD matrix of a series impedance z.
func SeriesZ(z complex128) Mat2 {
	return Mat2{{1, z}, {0, 1}}
}

// ShuntY returns the ABCD matrix of a shunt admittance y.
func ShuntY(y complex128) Mat2 {
	return Mat2{{1, 0}, {y, 1}}
}

// LineABCD returns the ABCD matrix of a transmission line with complex
// characteristic impedance zc and complex propagation constant gamma
// (= alpha + j beta, in 1/m) over length l meters.
func LineABCD(zc, gamma complex128, l float64) Mat2 {
	gl := gamma * complex(l, 0)
	ch := cmplx.Cosh(gl)
	sh := cmplx.Sinh(gl)
	return Mat2{{ch, zc * sh}, {sh / zc, ch}}
}

package twoport

// The elementary chain products the compiled passive chains apply, in
// place. Each is exact (==) against the generic Mul for finite operands.

// MulSeriesZ replaces a by a.Mul(SeriesZ(z)), specialized for the
// elementary series chain matrix [[1, z], [0, 1]]: products against the
// exact ones and zeros drop out, and for finite operands the surviving
// terms are computed by the same operations the generic Mul performs, so
// the result compares equal under ==. Where a or z is non-finite the two
// may differ, and the result is then non-finite too. The update reads only
// a's first column, which it leaves unchanged.
func MulSeriesZ(a *Mat2, z complex128) {
	a[0][1] = a[0][0]*z + a[0][1]
	a[1][1] = a[1][0]*z + a[1][1]
}

// MulShuntY replaces a by a.Mul(ShuntY(y)), specialized for the elementary
// shunt chain matrix [[1, 0], [y, 1]], under the same finite-operand
// contract as MulSeriesZ. It reads only a's second column, which it leaves
// unchanged.
func MulShuntY(a *Mat2, y complex128) {
	a[0][0] = a[0][0] + a[0][1]*y
	a[1][0] = a[1][0] + a[1][1]*y
}

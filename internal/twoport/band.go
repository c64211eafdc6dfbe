package twoport

// Grid-batched Mat2 algebra: the slab cascade behind Network.Cascade and the
// elementary products the compiled passive chains apply. Each is exact (==)
// against the generic per-point routine.

// CascadeSBand writes the S-parameter cascade of a[i] followed by b[i] at the
// common reference z0 into dst. Each point is the exact per-point CascadeS.
func CascadeSBand(z0 float64, dst, a, b []Mat2) error {
	for i := range dst {
		s, err := CascadeS(z0, a[i], b[i])
		if err != nil {
			return err
		}
		dst[i] = s
	}
	return nil
}

// MulSeriesZ returns a.Mul(SeriesZ(z)) specialized for the elementary series
// chain matrix [[1, z], [0, 1]]: products against the exact ones and zeros
// drop out, and for finite operands the surviving terms are computed by the
// same operations the generic Mul performs, so the result compares equal
// under ==. Callers must fall back to the generic product when a or z is
// non-finite.
func MulSeriesZ(a Mat2, z complex128) Mat2 {
	return Mat2{
		{a[0][0], a[0][0]*z + a[0][1]},
		{a[1][0], a[1][0]*z + a[1][1]},
	}
}

// MulShuntY returns a.Mul(ShuntY(y)) specialized for the elementary shunt
// chain matrix [[1, 0], [y, 1]], under the same finite-operand contract as
// MulSeriesZ.
func MulShuntY(a Mat2, y complex128) Mat2 {
	return Mat2{
		{a[0][0] + a[0][1]*y, a[0][1]},
		{a[1][0] + a[1][1]*y, a[1][1]},
	}
}

// SameGrid reports whether the two networks sample exactly the same
// frequency grid (same length, identical values).
func SameGrid(a, b *Network) bool {
	if len(a.Freqs) != len(b.Freqs) {
		return false
	}
	for i, f := range a.Freqs {
		if b.Freqs[i] != f {
			return false
		}
	}
	return true
}

package twoport

import (
	"math"
	"math/cmplx"
)

// RolletK returns the Rollet stability factor K. The two-port is
// unconditionally stable iff K > 1 and |Delta| < 1.
func RolletK(s Mat2) float64 {
	d := s.Det()
	num := 1 - abs2(s[0][0]) - abs2(s[1][1]) + abs2(d)
	den := 2 * cmplx.Abs(s[0][1]) * cmplx.Abs(s[1][0])
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// MuSource returns the mu stability factor (geometric distance from the
// center of the Smith chart to the nearest unstable source termination).
// mu > 1 is a single-parameter test of unconditional stability.
func MuSource(s Mat2) float64 {
	d := s.Det()
	num := 1 - abs2(s[0][0])
	den := cmplx.Abs(s[1][1]-d*cmplx.Conj(s[0][0])) + cmplx.Abs(s[0][1]*s[1][0])
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// Circle describes a circle in the reflection-coefficient plane.
type Circle struct {
	Center complex128
	Radius float64
}

// SourceStabilityCircle returns the locus of source reflection coefficients
// for which |GammaOut| = 1.
func SourceStabilityCircle(s Mat2) Circle {
	d := s.Det()
	den := abs2(s[0][0]) - abs2(d)
	if den == 0 {
		return Circle{Center: 0, Radius: math.Inf(1)}
	}
	c := cmplx.Conj(s[0][0]-d*cmplx.Conj(s[1][1])) / complex(den, 0)
	r := cmplx.Abs(s[0][1]*s[1][0]) / math.Abs(den)
	return Circle{Center: c, Radius: r}
}

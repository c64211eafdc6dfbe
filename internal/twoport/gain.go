package twoport

import "math"

// GammaFromZ returns the reflection coefficient of impedance z against the
// reference z0.
func GammaFromZ(z complex128, z0 float64) complex128 {
	zc := complex(z0, 0)
	return (z - zc) / (z + zc)
}

// ZFromGamma returns the impedance corresponding to reflection coefficient
// gamma against the reference z0.
func ZFromGamma(gamma complex128, z0 float64) complex128 {
	zc := complex(z0, 0)
	return zc * (1 + gamma) / (1 - gamma)
}

// GammaIn returns the input reflection coefficient of a two-port with
// S-parameters s terminated at the output by load reflection gammaL.
func GammaIn(s Mat2, gammaL complex128) complex128 {
	return s[0][0] + s[0][1]*s[1][0]*gammaL/(1-s[1][1]*gammaL)
}

// GammaOut returns the output reflection coefficient of a two-port with
// S-parameters s driven at the input by source reflection gammaS.
func GammaOut(s Mat2, gammaS complex128) complex128 {
	return s[1][1] + s[0][1]*s[1][0]*gammaS/(1-s[0][0]*gammaS)
}

// TransducerGain returns the transducer power gain GT of a two-port with
// S-parameters s between a source with reflection gammaS and a load with
// reflection gammaL (linear power ratio).
func TransducerGain(s Mat2, gammaS, gammaL complex128) float64 {
	gin := GammaIn(s, gammaL)
	num := (1 - abs2(gammaS)) * abs2(s[1][0]) * (1 - abs2(gammaL))
	den := abs2(1-gin*gammaS) * abs2(1-s[1][1]*gammaL)
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// AvailableGain returns the available power gain GA for source reflection
// gammaS (load conjugately matched to the output).
func AvailableGain(s Mat2, gammaS complex128) float64 {
	gout := GammaOut(s, gammaS)
	num := abs2(s[1][0]) * (1 - abs2(gammaS))
	den := abs2(1-s[0][0]*gammaS) * (1 - abs2(gout))
	if den <= 0 {
		return math.Inf(1)
	}
	return num / den
}

// OperatingGain returns the operating (power) gain GP for load reflection
// gammaL (independent of the source).
func OperatingGain(s Mat2, gammaL complex128) float64 {
	gin := GammaIn(s, gammaL)
	num := abs2(s[1][0]) * (1 - abs2(gammaL))
	den := (1 - abs2(gin)) * abs2(1-s[1][1]*gammaL)
	if den <= 0 {
		return math.Inf(1)
	}
	return num / den
}

func abs2(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}

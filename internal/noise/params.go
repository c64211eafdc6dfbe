// Package noise implements two-port noise theory: the four noise parameters
// (Fmin, Rn, GammaOpt), noise figure versus source termination, noise
// circles, and — the workhorse for the amplifier analysis — noise
// correlation matrices in the chain (CA) and admittance (CY)
// representations with exact cascading of noisy stages after Hillbrand &
// Russer. This lets the design flow account for the thermal noise of every
// lossy matching element, not just the transistor.
//
// All correlation matrices in this package are normalized to 4*k*T0 (T0 =
// 290 K): the physical spectral density matrix is 4*k*T0 times the stored
// values. With this convention CA[0][0] is directly Rn in ohms and CA[1][1]
// is Rn*|Yopt|^2 in siemens.
package noise

import (
	"errors"
	"math"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

// ErrNotPhysical reports a correlation matrix that does not correspond to a
// physical noisy network (e.g. negative noise resistance).
var ErrNotPhysical = errors.New("noise: correlation matrix is not physically realizable")

// Params holds the four noise parameters of a two-port referenced to Z0.
type Params struct {
	// Fmin is the minimum noise figure as a linear power ratio (>= 1).
	Fmin float64
	// Rn is the equivalent noise resistance in ohms.
	Rn float64
	// GammaOpt is the optimum source reflection coefficient (at Z0).
	GammaOpt complex128
	// Z0 is the reference impedance for GammaOpt.
	Z0 float64
}

// FminDB returns the minimum noise figure in dB.
func (p Params) FminDB() float64 { return mathx.DB10(p.Fmin) }

// YOpt returns the optimum source admittance.
func (p Params) YOpt() complex128 {
	z := twoport.ZFromGamma(p.GammaOpt, p.Z0)
	return 1 / z
}

// Figure returns the noise figure (linear) for source reflection gammaS.
func (p Params) Figure(gammaS complex128) float64 {
	ys := 1 / twoport.ZFromGamma(gammaS, p.Z0)
	return p.FigureY(ys)
}

// FigureY returns the noise figure (linear) for source admittance ys.
func (p Params) FigureY(ys complex128) float64 {
	gs := real(ys)
	if gs <= 0 {
		return math.Inf(1)
	}
	d := ys - p.YOpt()
	return p.Fmin + p.Rn/gs*(real(d)*real(d)+imag(d)*imag(d))
}

// Circle returns the locus of source reflection coefficients giving the
// noise figure f (linear, must be >= Fmin) as a circle in the Gamma plane.
func (p Params) Circle(f float64) (twoport.Circle, error) {
	if f < p.Fmin {
		return twoport.Circle{}, errors.New("noise: requested figure below Fmin")
	}
	g2 := real(p.GammaOpt)*real(p.GammaOpt) + imag(p.GammaOpt)*imag(p.GammaOpt)
	n := (f - p.Fmin) * sqAbs(1+p.GammaOpt) / (4 * p.Rn / p.Z0)
	center := p.GammaOpt / complex(1+n, 0)
	radius := math.Sqrt(n*n+n*(1-g2)) / (1 + n)
	return twoport.Circle{Center: center, Radius: radius}, nil
}

// Friis returns the cascade noise figure of stages with noise figures f[i]
// and available gains g[i] (both linear), assuming each stage sees the
// source impedance its noise figure was specified for.
func Friis(f, g []float64) float64 {
	if len(f) == 0 {
		return 1
	}
	total := f[0]
	gain := 1.0
	for i := 1; i < len(f); i++ {
		gain *= g[i-1]
		total += (f[i] - 1) / gain
	}
	return total
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

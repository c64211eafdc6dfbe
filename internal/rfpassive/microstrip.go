// Package rfpassive models the passive elements of the preamplifier with
// the frequency dispersion of their parameters (Q, ESR, effective
// permittivity, ...) that the paper's third contribution emphasizes:
// microstrip transmission lines (Hammerstad-Jensen statics, Kobayashi
// dispersion, conductor and dielectric loss), microstrip T-junction
// splitters, and chip inductors/capacitors/resistors with their parasitic
// networks. Every element can render itself as a noiseless chain matrix or
// as a noisy two-port at its physical temperature.
package rfpassive

import (
	"fmt"
	"math"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// Physical constants.
const (
	c0    = 299792458.0    // speed of light, m/s
	mu0   = 4e-7 * math.Pi // vacuum permeability, H/m
	eta0  = 376.730313668  // impedance of free space, ohm
	rhoCu = 1.68e-8        // copper resistivity, ohm*m
)

// Substrate describes a microstrip substrate.
type Substrate struct {
	// Er is the relative permittivity of the dielectric.
	Er float64
	// H is the substrate height in meters.
	H float64
	// TanD is the dielectric loss tangent.
	TanD float64
	// Rho is the conductor resistivity in ohm*m (copper if zero).
	Rho float64
	// Temp is the physical temperature in kelvin (290 K if zero).
	Temp float64
}

// FR4 returns a lossy FR-4 substrate typical of a low-cost GNSS preamplifier
// board (1.5 mm core).
func FR4() Substrate {
	return Substrate{Er: 4.4, H: 1.5e-3, TanD: 0.02, Rho: rhoCu, Temp: mathx.T0}
}

// RogersRO4350 returns a low-loss RF substrate (0.762 mm).
func RogersRO4350() Substrate {
	return Substrate{Er: 3.66, H: 0.762e-3, TanD: 0.0037, Rho: rhoCu, Temp: mathx.T0}
}

func (s Substrate) rho() float64 {
	if s.Rho == 0 {
		return rhoCu
	}
	return s.Rho
}

func (s Substrate) temp() float64 {
	if s.Temp == 0 {
		return mathx.T0
	}
	return s.Temp
}

// StaticParams returns the quasi-static effective permittivity and
// characteristic impedance of a microstrip of width w on the substrate,
// using the Hammerstad-Jensen model.
func (s Substrate) StaticParams(w float64) (epsEff, z0 float64) {
	u := w / s.H
	a := 1 +
		math.Log((math.Pow(u, 4)+math.Pow(u/52, 2))/(math.Pow(u, 4)+0.432))/49 +
		math.Log(1+math.Pow(u/18.1, 3))/18.7
	b := 0.564 * math.Pow((s.Er-0.9)/(s.Er+3), 0.053)
	epsEff = (s.Er+1)/2 + (s.Er-1)/2*math.Pow(1+10/u, -a*b)
	f1 := 6 + (2*math.Pi-6)*math.Exp(-math.Pow(30.666/u, 0.7528))
	z01 := eta0 / (2 * math.Pi) * math.Log(f1/u+math.Sqrt(1+4/(u*u)))
	return epsEff, z01 / math.Sqrt(epsEff)
}

// EpsEff returns the dispersive effective permittivity at frequency f using
// the Kobayashi (1988) closed-form model. With dispersion disabled it
// returns the quasi-static value.
func (s Substrate) EpsEff(w, f float64, dispersion bool) float64 {
	e0, _ := s.StaticParams(w)
	if !dispersion || f <= 0 {
		return e0
	}
	u := w / s.H
	// TM0 surface-wave resonance frequency.
	num := math.Atan(s.Er * math.Sqrt((e0-1)/(s.Er-e0)))
	fk := c0 * num / (2 * math.Pi * s.H * math.Sqrt(s.Er-e0))
	f50 := fk / (0.75 + (0.75-0.332/math.Pow(s.Er, 1.73))*u)
	m0 := 1 + 1/(1+math.Sqrt(u)) + 0.32*math.Pow(1/(1+math.Sqrt(u)), 3)
	mc := 1.0
	if u <= 0.7 {
		mc = 1 + 1.4/(1+u)*(0.15-0.235*math.Exp(-0.45*f/f50))
	}
	m := m0 * mc
	if m > 2.32 {
		m = 2.32
	}
	return s.Er - (s.Er-e0)/(1+math.Pow(f/f50, m))
}

// Z0At returns the dispersive characteristic impedance at frequency f,
// scaling the quasi-static impedance with the permittivity dispersion.
func (s Substrate) Z0At(w, f float64, dispersion bool) float64 {
	e0, z0 := s.StaticParams(w)
	if !dispersion {
		return z0
	}
	ef := s.EpsEff(w, f, true)
	// Yamashita-style impedance dispersion: Z scales as sqrt(e0/ef) about
	// the static value.
	return z0 * math.Sqrt(e0/ef)
}

// AlphaConductor returns the conductor attenuation in Np/m at f for a line
// of width w.
func (s Substrate) AlphaConductor(w, f float64) float64 {
	if f <= 0 {
		return 0
	}
	rs := math.Sqrt(math.Pi * f * mu0 * s.rho()) // surface resistance
	_, z0 := s.StaticParams(w)
	return rs / (z0 * w)
}

// AlphaDielectric returns the dielectric attenuation in Np/m at f for a
// line of width w, including the filling-factor correction.
func (s Substrate) AlphaDielectric(w, f float64, dispersion bool) float64 {
	if f <= 0 || s.TanD == 0 {
		return 0
	}
	ef := s.EpsEff(w, f, dispersion)
	if s.Er == 1 {
		return 0
	}
	return math.Pi * f / c0 * s.Er * (ef - 1) * s.TanD / (math.Sqrt(ef) * (s.Er - 1))
}

// WidthForZ0 synthesizes the line width giving characteristic impedance z0
// (quasi-static) on the substrate by bisection.
func (s Substrate) WidthForZ0(z0 float64) (float64, error) {
	if z0 <= 0 {
		return 0, fmt.Errorf("rfpassive: WidthForZ0 requires positive impedance, got %g", z0)
	}
	lo, hi := 0.02*s.H, 30*s.H
	_, zLo := s.StaticParams(lo) // narrow line -> high impedance
	_, zHi := s.StaticParams(hi)
	if z0 > zLo || z0 < zHi {
		return 0, fmt.Errorf("rfpassive: Z0 = %g ohm outside synthesizable range [%.1f, %.1f]", z0, zHi, zLo)
	}
	for i := 0; i < 100; i++ {
		mid := math.Sqrt(lo * hi)
		_, zm := s.StaticParams(mid)
		if zm > z0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}

// Line is a microstrip transmission-line element.
type Line struct {
	// Sub is the substrate the line is printed on.
	Sub Substrate
	// W is the strip width in meters.
	W float64
	// Len is the physical length in meters.
	Len float64
	// Dispersion enables the frequency-dispersive permittivity model.
	Dispersion bool
}

var _ Element = Line{}

// NewLine50 builds a line of the given electrical length (degrees at fRef)
// with quasi-static impedance z0 on the substrate.
func NewLine50(sub Substrate, z0, degAtRef, fRef float64) (Line, error) {
	w, err := sub.WidthForZ0(z0)
	if err != nil {
		return Line{}, err
	}
	e0 := sub.EpsEff(w, fRef, true)
	lambda := c0 / (fRef * math.Sqrt(e0))
	return Line{Sub: sub, W: w, Len: degAtRef / 360 * lambda, Dispersion: true}, nil
}

// Gamma returns the complex propagation constant (Np/m, rad/m) at f.
func (l Line) Gamma(f float64) complex128 {
	ef := l.Sub.EpsEff(l.W, f, l.Dispersion)
	beta := 2 * math.Pi * f * math.Sqrt(ef) / c0
	alpha := l.Sub.AlphaConductor(l.W, f) + l.Sub.AlphaDielectric(l.W, f, l.Dispersion)
	return complex(alpha, beta)
}

// Zc returns the characteristic impedance at f.
func (l Line) Zc(f float64) complex128 {
	return complex(l.Sub.Z0At(l.W, f, l.Dispersion), 0)
}

// ABCD returns the chain matrix of the line at f.
func (l Line) ABCD(f float64) twoport.Mat2 {
	return twoport.LineABCD(l.Zc(f), l.Gamma(f), l.Len)
}

// Noisy returns the line as a noisy two-port at its substrate temperature.
func (l Line) Noisy(f float64) noise.TwoPort {
	tp, err := noise.PassiveFromABCD(l.ABCD(f), l.Sub.temp())
	if err != nil {
		// A transmission line always has a valid Y matrix except at exact
		// zero length; treat that as a noiseless through.
		return noise.Noiseless(twoport.Identity2())
	}
	return tp
}

// String describes the line.
func (l Line) String() string {
	_, z0 := l.Sub.StaticParams(l.W)
	return fmt.Sprintf("MLIN w=%.3gmm l=%.3gmm (Z0~%.1f)", l.W*1e3, l.Len*1e3, z0)
}

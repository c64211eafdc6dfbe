package rfpassive

import (
	"fmt"
	"math"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// Orientation selects how a lumped element is inserted in the signal path.
type Orientation int

// Element orientations.
const (
	// Series places the element in series with the signal path.
	Series Orientation = iota + 1
	// Shunt places the element from the signal path to ground.
	Shunt
)

// Element is anything that can present itself as a two-port at a frequency.
type Element interface {
	// ABCD returns the chain matrix at frequency f in Hz.
	ABCD(f float64) twoport.Mat2
	// Noisy returns the element as a noisy two-port at f.
	Noisy(f float64) noise.TwoPort
	// String describes the element for reports.
	String() string
}

// Inductor is a chip (wire-wound or multilayer) inductor with a dispersive
// loss model: DC resistance plus skin-effect resistance growing as sqrt(f),
// and a parallel self-capacitance setting the self-resonant frequency.
type Inductor struct {
	// L is the nominal inductance in henries.
	L float64
	// RDC is the DC winding resistance in ohms.
	RDC float64
	// QRef is the quality factor at FRef (sets the skin-loss coefficient).
	QRef float64
	// FRef is the Q specification frequency in Hz.
	FRef float64
	// Cp is the parallel self-capacitance in farads.
	Cp float64
	// Orient selects series or shunt insertion.
	Orient Orientation
	// Temp is the physical temperature (290 K if zero).
	Temp float64
}

var _ Element = Inductor{}

// NewChipInductor returns a typical 0402 wire-wound chip inductor model for
// the given nominal inductance, in the given orientation.
func NewChipInductor(l float64, o Orientation) Inductor {
	// Representative small-signal data: Q ~ 40 at 800 MHz, SRF set by
	// ~0.12 pF self-capacitance, RDC scaling weakly with L.
	return Inductor{
		L:      l,
		RDC:    0.1 + 8e6*l, // 0.1 ohm + 0.08 ohm/10nH
		QRef:   40,
		FRef:   800e6,
		Cp:     0.12e-12,
		Orient: o,
		Temp:   mathx.T0,
	}
}

// seriesR returns the dispersive series resistance at f: RDC plus the
// skin-effect term.
//
// It stays out of line, like Capacitor.ESR: inlined into the
// value-receiver Impedance, Go 1.24 on amd64 copies the whole receiver
// through the stack with loads that defeat store-to-load forwarding, which
// made Impedance about 2.5 times slower.
//
//go:noinline
func (l Inductor) seriesR(f float64) float64 {
	if f <= 0 || l.QRef <= 0 || l.FRef <= 0 {
		return l.RDC
	}
	// Choose the skin coefficient so that Q(FRef) = QRef given RDC.
	wRef := 2 * math.Pi * l.FRef
	rAtRef := wRef * l.L / l.QRef
	k := (rAtRef - l.RDC) / math.Sqrt(l.FRef)
	if k < 0 {
		k = 0
	}
	return l.RDC + k*math.Sqrt(f)
}

// Impedance returns the one-port impedance of the inductor at f, including
// the self-capacitance.
func (l Inductor) Impedance(f float64) complex128 {
	w := 2 * math.Pi * f
	zs := complex(l.seriesR(f), w*l.L)
	if l.Cp <= 0 || f <= 0 {
		return zs
	}
	yc := complex(0, w*l.Cp)
	return zs / (1 + zs*yc)
}

// Q returns the quality factor at f.
func (l Inductor) Q(f float64) float64 {
	z := l.Impedance(f)
	if real(z) == 0 {
		return math.Inf(1)
	}
	return math.Abs(imag(z)) / real(z)
}

// SRF returns the self-resonant frequency in Hz (infinite without Cp).
func (l Inductor) SRF() float64 {
	if l.Cp <= 0 || l.L <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * math.Pi * math.Sqrt(l.L*l.Cp))
}

// ESR returns the effective series resistance Re(Z) at f.
func (l Inductor) ESR(f float64) float64 { return real(l.Impedance(f)) }

// ABCD returns the chain matrix at f.
func (l Inductor) ABCD(f float64) twoport.Mat2 {
	z := l.Impedance(f)
	if l.Orient == Shunt {
		return twoport.ShuntY(1 / z)
	}
	return twoport.SeriesZ(z)
}

// Noisy returns the element with its thermal noise at f.
func (l Inductor) Noisy(f float64) noise.TwoPort {
	z := l.Impedance(f)
	t := l.Temp
	if t == 0 {
		t = mathx.T0
	}
	if l.Orient == Shunt {
		return noise.ShuntY(1/z, t)
	}
	return noise.SeriesZ(z, t)
}

// String describes the inductor.
func (l Inductor) String() string {
	return fmt.Sprintf("L=%.3gnH %s (Q%.0f@%.0fMHz)", l.L*1e9, orientName(l.Orient), l.QRef, l.FRef/1e6)
}

// Capacitor is a chip (MLCC) capacitor with ESR from electrode skin loss and
// dielectric loss tangent, plus series parasitic inductance (ESL).
type Capacitor struct {
	// C is the nominal capacitance in farads.
	C float64
	// RS0 is the electrode resistance at FRef in ohms.
	RS0 float64
	// FRef is the ESR specification frequency in Hz.
	FRef float64
	// TanD is the dielectric loss tangent.
	TanD float64
	// ESL is the series parasitic inductance in henries.
	ESL float64
	// Orient selects series or shunt insertion.
	Orient Orientation
	// Temp is the physical temperature (290 K if zero).
	Temp float64
}

var _ Element = Capacitor{}

// NewChipCapacitor returns a typical 0402 C0G chip capacitor model for the
// given nominal capacitance, in the given orientation.
func NewChipCapacitor(c float64, o Orientation) Capacitor {
	return Capacitor{
		C:      c,
		RS0:    0.08,
		FRef:   1e9,
		TanD:   0.001, // C0G/NP0 dielectric
		ESL:    0.3e-9,
		Orient: o,
		Temp:   mathx.T0,
	}
}

// ESR returns the dispersive effective series resistance at f: electrode
// metal loss growing as sqrt(f) plus dielectric loss falling as 1/f. It
// stays out of line for the reason given at Inductor.seriesR.
//
//go:noinline
func (c Capacitor) ESR(f float64) float64 {
	if f <= 0 {
		return c.RS0
	}
	rMetal := c.RS0
	if c.FRef > 0 {
		rMetal = c.RS0 * math.Sqrt(f/c.FRef)
	}
	rDiel := 0.0
	if c.C > 0 {
		rDiel = c.TanD / (2 * math.Pi * f * c.C)
	}
	return rMetal + rDiel
}

// Impedance returns the one-port impedance at f.
func (c Capacitor) Impedance(f float64) complex128 {
	if f <= 0 {
		return complex(math.Inf(1), 0)
	}
	w := 2 * math.Pi * f
	return complex(c.ESR(f), w*c.ESL-1/(w*c.C))
}

// Q returns the quality factor at f.
func (c Capacitor) Q(f float64) float64 {
	z := c.Impedance(f)
	if real(z) == 0 {
		return math.Inf(1)
	}
	return math.Abs(imag(z)) / real(z)
}

// SRF returns the series self-resonant frequency in Hz.
func (c Capacitor) SRF() float64 {
	if c.ESL <= 0 || c.C <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * math.Pi * math.Sqrt(c.ESL*c.C))
}

// ABCD returns the chain matrix at f.
func (c Capacitor) ABCD(f float64) twoport.Mat2 {
	z := c.Impedance(f)
	if c.Orient == Shunt {
		return twoport.ShuntY(1 / z)
	}
	return twoport.SeriesZ(z)
}

// Noisy returns the element with its thermal noise at f.
func (c Capacitor) Noisy(f float64) noise.TwoPort {
	z := c.Impedance(f)
	t := c.Temp
	if t == 0 {
		t = mathx.T0
	}
	if c.Orient == Shunt {
		return noise.ShuntY(1/z, t)
	}
	return noise.SeriesZ(z, t)
}

// String describes the capacitor.
func (c Capacitor) String() string {
	return fmt.Sprintf("C=%.3gpF %s", c.C*1e12, orientName(c.Orient))
}

// Resistor is a chip resistor with a small parasitic inductance and parallel
// capacitance.
type Resistor struct {
	// R is the nominal resistance in ohms.
	R float64
	// Lp is the series parasitic inductance in henries.
	Lp float64
	// Cp is the parallel parasitic capacitance in farads.
	Cp float64
	// Orient selects series or shunt insertion.
	Orient Orientation
	// Temp is the physical temperature (290 K if zero).
	Temp float64
}

var _ Element = Resistor{}

// NewChipResistor returns a typical 0402 thick-film resistor model.
func NewChipResistor(r float64, o Orientation) Resistor {
	return Resistor{R: r, Lp: 0.4e-9, Cp: 0.05e-12, Orient: o, Temp: mathx.T0}
}

// Impedance returns the one-port impedance at f.
func (r Resistor) Impedance(f float64) complex128 {
	w := 2 * math.Pi * f
	zs := complex(r.R, w*r.Lp)
	if r.Cp <= 0 || f <= 0 {
		return zs
	}
	return zs / (1 + zs*complex(0, w*r.Cp))
}

// ABCD returns the chain matrix at f.
func (r Resistor) ABCD(f float64) twoport.Mat2 {
	z := r.Impedance(f)
	if r.Orient == Shunt {
		return twoport.ShuntY(1 / z)
	}
	return twoport.SeriesZ(z)
}

// Noisy returns the element with its thermal noise at f.
func (r Resistor) Noisy(f float64) noise.TwoPort {
	z := r.Impedance(f)
	t := r.Temp
	if t == 0 {
		t = mathx.T0
	}
	if r.Orient == Shunt {
		return noise.ShuntY(1/z, t)
	}
	return noise.SeriesZ(z, t)
}

// String describes the resistor.
func (r Resistor) String() string {
	return fmt.Sprintf("R=%.3gohm %s", r.R, orientName(r.Orient))
}

func orientName(o Orientation) string {
	if o == Shunt {
		return "shunt"
	}
	return "series"
}

// Chain is an ordered cascade of elements forming a composite two-port.
type Chain []Element

var _ Element = Chain{}

// ABCD returns the chain matrix of the whole cascade at f.
func (ch Chain) ABCD(f float64) twoport.Mat2 {
	a := twoport.Identity2()
	for _, e := range ch {
		a = a.Mul(e.ABCD(f))
	}
	return a
}

// Noisy returns the cascade as a noisy two-port at f.
func (ch Chain) Noisy(f float64) noise.TwoPort {
	n := noise.Noiseless(twoport.Identity2())
	for _, e := range ch {
		n = n.Cascade(e.Noisy(f))
	}
	return n
}

// String lists the cascade contents.
func (ch Chain) String() string {
	s := ""
	for i, e := range ch {
		if i > 0 {
			s += " -> "
		}
		s += e.String()
	}
	return s
}

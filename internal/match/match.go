// Package match synthesizes the single-stub transmission-line match
// analytically. The design flow uses numerical optimization for the full
// multi-band problem, but the analytic single-frequency solution seeds
// designs, provides a sanity anchor in tests, and makes the library useful
// as a standalone RF toolbox.
package match

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrUnmatchable reports a load that the requested topology cannot match
// (e.g. purely reactive loads).
var ErrUnmatchable = errors.New("match: load not matchable with this topology")

// StubMatch is a single-stub shunt matching solution on a transmission
// line: a line length d from the load, then an open- or short-circuited
// stub of length lStub, both in electrical radians (beta*l).
type StubMatch struct {
	// DistRad is the electrical distance from the load to the stub.
	DistRad float64
	// StubRad is the electrical stub length.
	StubRad float64
	// Open reports whether the stub is open-circuited (else shorted).
	Open bool
}

// DesignSingleStub matches load zl to line impedance z0 with a shunt stub.
// It returns the solution with the shortest positive stub position.
func DesignSingleStub(zl complex128, z0 float64, open bool) (StubMatch, error) {
	if real(zl) <= 0 {
		return StubMatch{}, fmt.Errorf("%w: load %v", ErrUnmatchable, zl)
	}
	if cmplx.Abs(zl-complex(z0, 0)) < 1e-12 {
		return StubMatch{DistRad: 0, StubRad: stubLenFor(0, open), Open: open}, nil
	}
	// Distance solutions t = tan(beta*d) from the classical quadratic
	// (Pozar, Microwave Engineering, section 5.2).
	rl, xl := real(zl), imag(zl)
	var ts []float64
	if math.Abs(rl-z0) < 1e-12 {
		ts = []float64{-xl / (2 * z0)}
	} else {
		disc := rl * ((z0-rl)*(z0-rl) + xl*xl) / z0
		if disc < 0 {
			return StubMatch{}, ErrUnmatchable
		}
		sq := math.Sqrt(disc)
		ts = []float64{(xl + sq) / (rl - z0), (xl - sq) / (rl - z0)}
	}
	best := StubMatch{DistRad: math.Inf(1)}
	for _, t := range ts {
		d := math.Atan(t)
		for d < 0 {
			d += math.Pi
		}
		// Susceptance to cancel at the stub plane (absolute siemens),
		// normalized to the line for the stub-length formula.
		den := rl*rl + (xl+z0*t)*(xl+z0*t)
		b := (rl*rl*t - (z0-xl*t)*(xl+z0*t)) / (z0 * den)
		stub := stubLenFor(b*z0, open)
		if d < best.DistRad {
			best = StubMatch{DistRad: d, StubRad: stub, Open: open}
		}
	}
	if math.IsInf(best.DistRad, 1) {
		return StubMatch{}, ErrUnmatchable
	}
	return best, nil
}

// stubLenFor returns the electrical length of an open/short stub with input
// susceptance -b (normalized to 1/z0... here b is the absolute susceptance
// times z0 handled by caller convention: we need stub input susceptance
// Bstub = -B to cancel).
func stubLenFor(b float64, open bool) float64 {
	// Open stub: Bin = (1/z0) tan(beta l)  -> normalized tan(bl) = -b*z0.
	// Short stub: Bin = -(1/z0) cot(beta l) -> cot(bl) = b*z0.
	var l float64
	if open {
		l = math.Atan(-b)
	} else {
		l = math.Atan2(1, b)
	}
	for l < 0 {
		l += math.Pi
	}
	return l
}

// InputImpedance evaluates the matched line system terminated in zl, for
// verification: the load seen through distance DistRad with the stub in
// shunt at that plane, all on lines of impedance z0.
func (m StubMatch) InputImpedance(zl complex128, z0 float64) complex128 {
	zc := complex(z0, 0)
	// Transform the load along the line.
	t := complex(math.Tan(m.DistRad), 0)
	zd := zc * (zl + zc*1i*t) / (zc + zl*1i*t)
	// Stub input admittance.
	var ystub complex128
	if m.Open {
		ystub = complex(0, math.Tan(m.StubRad)) / zc
	} else {
		ystub = complex(0, -1/math.Tan(m.StubRad)) / zc
	}
	y := 1/zd + ystub
	return 1 / y
}

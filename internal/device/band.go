package device

import (
	"fmt"
	"math"

	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// Band-sweep paths. The bias-dependent small-signal model — four numerical
// derivatives of the DC model plus the capacitance fits — does not depend on
// frequency, so BandState hoists it out of the grid loop. NoisyAt is the
// 1-point view: it derives the state and calls NoisyAtState.

// BandState is the frequency-independent part of the device evaluation at
// one bias point.
type BandState struct {
	// SS is the intrinsic small-signal model at the bias.
	SS SmallSignal
	// Td is the drain noise temperature at the bias current.
	Td float64
}

// BandStateAt computes the reusable bias state.
func (d *PHEMT) BandStateAt(b Bias) BandState {
	return BandState{
		SS: d.SmallSignalAt(b),
		Td: d.Noise.Td(d.Ids(b)),
	}
}

// NoisyAtState returns the embedded noisy two-port at f from a precomputed
// bias state.
func (d *PHEMT) NoisyAtState(st BandState, b Bias, f float64) (noise.TwoPort, error) {
	y, cy := IntrinsicNoisyY(st.SS, f, d.Noise.Tg, st.Td)
	tp, err := Embed(y, cy, d.Ext, f, d.Noise.Ta)
	if err != nil {
		return noise.TwoPort{}, d.pointErr(b, f, err)
	}
	return tp, nil
}

// pointErr names the device, bias and frequency an embedding failed at.
func (d *PHEMT) pointErr(b Bias, f float64, err error) error {
	return fmt.Errorf("device %s at (%.2f, %.2f) V, %.3g Hz: %w", d.Name, b.Vgs, b.Vds, f, err)
}

// NoisyBandInto writes the embedded noisy two-port at each frequency into
// dst (same length as freqs), computing the bias state once.
func (d *PHEMT) NoisyBandInto(dst []noise.TwoPort, b Bias, freqs []float64) error {
	st := d.BandStateAt(b)
	for i, f := range freqs {
		tp, err := d.NoisyAtState(st, b, f)
		if err != nil {
			return err
		}
		dst[i] = tp
	}
	return nil
}

// EmbedABCD returns only the chain matrix of the embedded device: the exact
// A-side arithmetic of Embed — the same conversion sequence in the same
// order, so the result is equal (==) to Embed(...).A — with every
// noise-correlation congruence skipped. Stability scans need S (hence A)
// but none of the noise bookkeeping, which is most of Embed's cost.
func EmbedABCD(yInt twoport.Mat2, ex Extrinsics, f float64) (twoport.Mat2, error) {
	w := 2 * math.Pi * f
	// FromY: A = YToABCD(yInt).
	a, err := twoport.YToABCD(yInt)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed intrinsic: %w", err)
	}
	// ToZ round-trips through Y: y = ABCDToY(A), z = YToZ(y).
	y, err := twoport.ABCDToY(a)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed to Z: %w", err)
	}
	z, err := twoport.YToZ(y)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed to Z: %w", err)
	}
	zg := complex(ex.Rg, w*ex.Lg)
	zs := complex(ex.Rs, w*ex.Ls)
	zd := complex(ex.Rd, w*ex.Ld)
	// Common-lead impedance adds to every entry of Z (series feedback).
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] += zs
		}
	}
	z[0][0] += zg
	z[1][1] += zd
	// FromZ: y = ZToY(z), A = YToABCD(y).
	y, err = twoport.ZToY(z)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed from Z: %w", err)
	}
	a, err = twoport.YToABCD(y)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed from Z: %w", err)
	}
	// ToY then pad susceptances, then the final FromY.
	y, err = twoport.ABCDToY(a)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed pads: %w", err)
	}
	y[0][0] += complex(0, w*ex.Cpg)
	y[1][1] += complex(0, w*ex.Cpd)
	return twoport.YToABCD(y)
}

// ABCDAtState returns only the embedded chain matrix at f from a
// precomputed bias state, equal (==) to NoisyAt(b, f).A.
func (d *PHEMT) ABCDAtState(st BandState, f float64) (twoport.Mat2, error) {
	return EmbedABCD(IntrinsicY(st.SS, f), d.Ext, f)
}

// ABCDBandInto writes the embedded chain matrix at each frequency into dst
// (same length as freqs), computing the bias state once.
func (d *PHEMT) ABCDBandInto(dst []twoport.Mat2, b Bias, freqs []float64) error {
	st := d.BandStateAt(b)
	for i, f := range freqs {
		a, err := d.ABCDAtState(st, f)
		if err != nil {
			return d.pointErr(b, f, err)
		}
		dst[i] = a
	}
	return nil
}

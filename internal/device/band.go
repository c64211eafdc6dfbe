package device

import (
	"fmt"

	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// Per-point paths. The bias-dependent small-signal model — four numerical
// derivatives of the DC model plus the capacitance fits — does not depend on
// frequency, so BandState hoists it out of every frequency loop. NoisyAt is
// the 1-point view: it derives the state and calls NoisyAtState.

// BandState is the frequency-independent part of the device evaluation at
// one bias point.
type BandState struct {
	// SS is the intrinsic small-signal model at the bias.
	SS SmallSignal
	// Td is the drain noise temperature at the bias current.
	Td float64
	// bias is the operating point, named in ABCDAtState's errors.
	bias Bias
}

// BandStateAt computes the reusable bias state.
func (d *PHEMT) BandStateAt(b Bias) BandState {
	return BandState{
		SS:   d.SmallSignalAt(b),
		Td:   d.Noise.Td(d.Ids(b)),
		bias: b,
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

// EmbedABCD returns only the chain matrix of the embedded device:
// YToABCD of the one embedding sequence (embedY) that Embed runs, so the
// result is equal (==) to Embed(...).A and it fails exactly where Embed
// does, with the noise bookkeeping skipped. Stability scans need S (hence
// A) but none of the noise.
func EmbedABCD(yInt twoport.Mat2, ex Extrinsics, f float64) (twoport.Mat2, error) {
	_, _, y, err := embedY(yInt, ex, f)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return twoport.YToABCD(y)
}

// ABCDAtState returns only the embedded chain matrix at f from a
// precomputed bias state, equal (==) to NoisyAt(b, f).A; its error names
// the device, the state's bias and f, as NoisyAtState's does.
func (d *PHEMT) ABCDAtState(st BandState, f float64) (twoport.Mat2, error) {
	a, err := EmbedABCD(IntrinsicY(st.SS, f), d.Ext, f)
	if err != nil {
		return twoport.Mat2{}, d.pointErr(st.bias, f, err)
	}
	return a, nil
}

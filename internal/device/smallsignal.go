package device

import (
	"fmt"
	"math"
	"math/cmplx"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// Bias is a DC operating point of the transistor.
type Bias struct {
	// Vgs is the gate-source voltage in volts.
	Vgs float64
	// Vds is the drain-source voltage in volts.
	Vds float64
}

// SmallSignal holds the intrinsic small-signal equivalent-circuit elements
// at one bias point.
type SmallSignal struct {
	// Gm is the transconductance in siemens.
	Gm float64
	// Gds is the output conductance in siemens.
	Gds float64
	// Cgs is the gate-source capacitance in farads.
	Cgs float64
	// Cgd is the gate-drain (feedback) capacitance in farads.
	Cgd float64
	// Cds is the drain-source capacitance in farads.
	Cds float64
	// Ri is the intrinsic channel charging resistance in ohms.
	Ri float64
	// Tau is the transconductance delay in seconds.
	Tau float64
}

// Extrinsics holds the bias-independent parasitic elements surrounding the
// intrinsic device.
type Extrinsics struct {
	// Rg, Rs, Rd are the terminal resistances in ohms.
	Rg, Rs, Rd float64
	// Lg, Ls, Ld are the terminal inductances in henries.
	Lg, Ls, Ld float64
	// Cpg, Cpd are the pad capacitances in farads.
	Cpg, Cpd float64
}

// IntrinsicY returns the admittance matrix of the intrinsic equivalent
// circuit at angular frequency derived from f (Hz).
func IntrinsicY(ss SmallSignal, f float64) twoport.Mat2 {
	w := 2 * math.Pi * f
	d := complex(1, w*ss.Cgs*ss.Ri)
	ygs := complex(0, w*ss.Cgs) / d
	ygd := complex(0, w*ss.Cgd)
	ym := complex(ss.Gm, 0) * cmplx.Exp(complex(0, -w*ss.Tau)) / d
	return twoport.Mat2{
		{ygs + ygd, -ygd},
		{ym - ygd, complex(ss.Gds, w*ss.Cds) + ygd},
	}
}

// IntrinsicNoisyY returns the intrinsic admittance matrix together with its
// Pospieszalski noise correlation matrix (normalized to 4kT0) for gate
// temperature tg and drain temperature td (kelvin). y is IntrinsicY(ss, f),
// assembled from the same terms by the same expressions, so the noise
// terms and y share one exponential and one pair of divisions.
func IntrinsicNoisyY(ss SmallSignal, f, tg, td float64) (y, cy twoport.Mat2) {
	w := 2 * math.Pi * f
	d := complex(1, w*ss.Cgs*ss.Ri)
	ygs := complex(0, w*ss.Cgs) / d
	ygd := complex(0, w*ss.Cgd)
	ym := complex(ss.Gm, 0) * cmplx.Exp(complex(0, -w*ss.Tau)) / d
	y = twoport.Mat2{
		{ygs + ygd, -ygd},
		{ym - ygd, complex(ss.Gds, w*ss.Cds) + ygd},
	}
	// Noise sources: e_ri in series with Ri at Tg drives short-circuit
	// currents j1 = Ygs*e at the gate and j2 = Ym*e at the drain; the drain
	// current source i_d (gds at Td) adds directly at port 2, uncorrelated.
	riTerm := ss.Ri * tg / mathx.T0
	cy[0][0] = complex(sqAbs(ygs)*riTerm, 0)
	cy[0][1] = ygs * cmplx.Conj(ym) * complex(riTerm, 0)
	cy[1][0] = cmplx.Conj(cy[0][1])
	cy[1][1] = complex(sqAbs(ym)*riTerm+ss.Gds*td/mathx.T0, 0)
	return y, cy
}

// Embed surrounds the intrinsic noisy two-port with the extrinsic
// parasitics: series gate/drain impedances, the common-lead source
// impedance (added to every Z entry), and shunt pad capacitances. Resistive
// parasitics contribute thermal noise at ambient temperature ta.
//
// It runs the one embedding sequence (embedY) and carries the noise
// alongside it in the immittance representations: the intrinsic CY becomes
// CZ = Z CY Z^H with the intrinsic Z, the thermal noise of Rs (every entry),
// Rg and Rd adds to CZ, and CY = Y CZ Y^H is taken with the admittance
// before the pads, which are noiseless. noise.FromY then forms the chain
// representation once. The A-only embedding EmbedABCD runs the same
// sequence, so it equals (==) Embed(...).A.
//
// Embed fails in two places only: Mat2.Inv finds the intrinsic Y or the
// embedded Z singular ("device: embed to Z", "device: embed pads"), or the
// embedded Y has Y21 == 0 and no chain matrix ("noise: FromY"). Embedding
// through the chain representation also failed on intrinsic admittances
// without a chain matrix (Y21 == 0, "device: embed intrinsic") and on
// embedded impedances without one (Z21 == 0, "device: embed from Z"); the
// immittance sequence never forms those intermediates.
func Embed(yInt, cyInt twoport.Mat2, ex Extrinsics, f, ta float64) (noise.TwoPort, error) {
	zInt, yc, y, err := embedY(yInt, ex, f)
	if err != nil {
		return noise.TwoPort{}, err
	}
	cz := cyInt.Congruence(zInt) // CZ = Z CY Z^H
	tn := ta / mathx.T0
	// Common-lead resistance noise adds to every entry of CZ.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			cz[i][j] += complex(ex.Rs*tn, 0)
		}
	}
	cz[0][0] += complex(ex.Rg*tn, 0)
	cz[1][1] += complex(ex.Rd*tn, 0)
	return noise.FromY(y, cz.Congruence(yc)) // CY = Y CZ Y^H before the pads
}

// embedY is the one embedding sequence every embedding runs: z = yInt^-1,
// the common-lead impedance Zs added to every entry of z (series feedback),
// Zg to z11 and Zd to z22, yc = z^-1, then the pad susceptances jwCpg and
// jwCpd added to y11 and y22. It returns the intrinsic impedance zInt, the
// admittance yc after the series parasitics and before the pads, and the
// external admittance y. Only Mat2.Inv's singularity test can fail it.
func embedY(yInt twoport.Mat2, ex Extrinsics, f float64) (zInt, yc, y twoport.Mat2, err error) {
	w := 2 * math.Pi * f
	zInt, err = yInt.Inv()
	if err != nil {
		return zInt, yc, y, fmt.Errorf("device: embed to Z: %w", err)
	}
	zg := complex(ex.Rg, w*ex.Lg)
	zs := complex(ex.Rs, w*ex.Ls)
	zd := complex(ex.Rd, w*ex.Ld)
	z := zInt
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] += zs
		}
	}
	z[0][0] += zg
	z[1][1] += zd
	yc, err = z.Inv()
	if err != nil {
		return zInt, yc, y, fmt.Errorf("device: embed pads: %w", err)
	}
	// Pad capacitances shunt the external ports (lossless).
	y = yc
	y[0][0] += complex(0, w*ex.Cpg)
	y[1][1] += complex(0, w*ex.Cpd)
	return zInt, yc, y, nil
}

// SFromSmallSignal returns the embedded S-parameters of an intrinsic
// small-signal model inside the given extrinsics, without noise bookkeeping:
// YToS of the one embedding sequence (embedY) that Embed and EmbedABCD run.
// Extraction inner loops use this path: the small-signal model per bias is
// computed once and swept over frequency.
func SFromSmallSignal(ss SmallSignal, ex Extrinsics, f, z0 float64) (twoport.Mat2, error) {
	_, _, y, err := embedY(IntrinsicY(ss, f), ex, f)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return twoport.YToS(y, z0)
}

// FT returns the short-circuit current-gain cutoff frequency of the
// intrinsic model.
func (ss SmallSignal) FT() float64 {
	ctot := ss.Cgs + ss.Cgd
	if ctot <= 0 {
		return 0
	}
	return ss.Gm / (2 * math.Pi * ctot)
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

package device

import (
	"fmt"
	"math"
	"math/rand"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// CapModel describes the bias dependence of the intrinsic capacitances with
// smooth tanh transitions (after Angelov's capacitance model).
type CapModel struct {
	// Cgs0 is the on-state (open channel) gate-source capacitance.
	Cgs0 float64
	// CgsPinch is the pinched-off gate-source capacitance.
	CgsPinch float64
	// CgsVmid and CgsVscale place the Cgs transition versus Vgs.
	CgsVmid, CgsVscale float64
	// Cgd0 is the zero-Vds gate-drain capacitance.
	Cgd0 float64
	// CgdVscale controls the Cgd decrease with Vds.
	CgdVscale float64
	// Cds is the (bias-independent) drain-source capacitance.
	Cds float64
}

// Cgs returns the gate-source capacitance at vgs.
func (c CapModel) Cgs(vgs float64) float64 {
	if c.CgsVscale <= 0 {
		return c.Cgs0
	}
	t := math.Tanh((vgs - c.CgsVmid) / c.CgsVscale)
	return c.CgsPinch + (c.Cgs0-c.CgsPinch)*(1+t)/2
}

// Cgd returns the gate-drain capacitance at vds.
func (c CapModel) Cgd(vds float64) float64 {
	if c.CgdVscale <= 0 {
		return c.Cgd0
	}
	return c.Cgd0 / (1 + math.Max(vds, 0)/c.CgdVscale)
}

// NoiseModel holds the Pospieszalski two-temperature parameters. The drain
// temperature grows with drain current, which creates the fundamental
// NF-vs-gain trade-off the paper's optimization balances.
type NoiseModel struct {
	// Tg is the gate (Ri) equivalent temperature in kelvin.
	Tg float64
	// Td0 is the drain temperature at zero current in kelvin.
	Td0 float64
	// TdSlope is the drain temperature increase in kelvin per ampere.
	TdSlope float64
	// Ta is the ambient temperature of the parasitic resistances.
	Ta float64
}

// Td returns the drain temperature at drain current ids.
func (n NoiseModel) Td(ids float64) float64 {
	return n.Td0 + n.TdSlope*math.Abs(ids)
}

// PHEMT is a complete transistor: DC model, bias-dependent small-signal
// topology, extrinsic parasitics and noise model.
type PHEMT struct {
	// Name labels the device in reports.
	Name string
	// DC is the nonlinear drain-current model.
	DC DCModel
	// Caps is the bias-dependent capacitance model.
	Caps CapModel
	// Ri is the intrinsic charging resistance in ohms.
	Ri float64
	// Tau is the transconductance delay in seconds.
	Tau float64
	// Ext are the extrinsic parasitics.
	Ext Extrinsics
	// Noise is the two-temperature noise model.
	Noise NoiseModel
}

// Golden returns the hidden reference device standing in for the physical
// pHEMT the paper measures: an enhancement-mode GaAs pHEMT of the
// ATF-54143 class, described by an Angelov DC model. The synthetic VNA
// "measures" this device; extraction then recovers it.
func Golden() *PHEMT {
	return &PHEMT{
		Name: "golden-epHEMT",
		DC: &Angelov{
			Ipk:    0.095, // A
			Vpk:    0.48,  // V
			P1:     3.0,
			P2:     0.5,
			P3:     0.18,
			Lambda: 0.045,
			Alpha:  2.6,
		},
		Caps: CapModel{
			Cgs0:      1.55e-12,
			CgsPinch:  0.45e-12,
			CgsVmid:   0.30,
			CgsVscale: 0.22,
			Cgd0:      0.24e-12,
			CgdVscale: 1.8,
			Cds:       0.52e-12,
		},
		Ri:  1.1,
		Tau: 2.2e-12,
		Ext: Extrinsics{
			Rg: 1.0, Rs: 0.55, Rd: 1.6,
			Lg: 0.45e-9, Ls: 0.28e-9, Ld: 0.55e-9,
			Cpg: 0.24e-12, Cpd: 0.26e-12,
		},
		Noise: NoiseModel{
			Tg:      300,
			Td0:     850,
			TdSlope: 14000, // K/A: Td ~ 1690 K at 60 mA
			Ta:      mathx.T0,
		},
	}
}

// GoldenVariant returns a process-shifted copy of the golden device: every
// DC, capacitance and parasitic parameter is perturbed by up to +/-15%
// (deterministically per seed). Extraction robustness tests use these
// variants as "other lots" of the same transistor type. An error is
// returned when the shifted DC parameter vector is rejected by the model.
func GoldenVariant(seed int64) (*PHEMT, error) {
	return variantOf(Golden(), seed)
}

// variantOf perturbs every parameter of d in place by up to +/-15%
// (deterministically per seed) and renames it.
func variantOf(d *PHEMT, seed int64) (*PHEMT, error) {
	rng := rand.New(rand.NewSource(seed))
	scale := func(v float64) float64 { return v * (1 + 0.15*(2*rng.Float64()-1)) }
	p := d.DC.Params()
	for i := range p {
		p[i] = scale(p[i])
	}
	if err := d.DC.SetParams(p); err != nil {
		return nil, fmt.Errorf("device: variant seed %d: %w", seed, err)
	}
	d.Caps.Cgs0 = scale(d.Caps.Cgs0)
	d.Caps.CgsPinch = scale(d.Caps.CgsPinch)
	d.Caps.Cgd0 = scale(d.Caps.Cgd0)
	d.Caps.Cds = scale(d.Caps.Cds)
	d.Ri = scale(d.Ri)
	d.Tau = scale(d.Tau)
	d.Ext.Rg = scale(d.Ext.Rg)
	d.Ext.Rs = scale(d.Ext.Rs)
	d.Ext.Rd = scale(d.Ext.Rd)
	d.Ext.Lg = scale(d.Ext.Lg)
	d.Ext.Ls = scale(d.Ext.Ls)
	d.Ext.Ld = scale(d.Ext.Ld)
	d.Ext.Cpg = scale(d.Ext.Cpg)
	d.Ext.Cpd = scale(d.Ext.Cpd)
	d.Name = fmt.Sprintf("golden-variant-%d", seed)
	return d, nil
}

// Ids returns the DC drain current at the bias point.
func (d *PHEMT) Ids(b Bias) float64 { return d.DC.Ids(b.Vgs, b.Vds) }

// SmallSignalAt returns the intrinsic small-signal model at the bias point.
func (d *PHEMT) SmallSignalAt(b Bias) SmallSignal {
	gm, gds := Conductances(d.DC, b)
	return d.SmallSignalFrom(b, gm, gds)
}

// Conductances returns the small-signal conductances a DC model sets at a
// bias point: the transconductance Gm and the output conductance Gds,
// floored at 1e-9 S.
func Conductances(m DCModel, b Bias) (gm, gds float64) {
	return Gm(m, b.Vgs, b.Vds), math.Max(Gds(m, b.Vgs, b.Vds), 1e-9)
}

// SmallSignalFrom assembles the small-signal model at bias point b from
// the conductances gm and gds, as Conductances returns them for d.DC, and
// the device's capacitances, Ri and Tau. SmallSignalAt is SmallSignalFrom
// of d.DC's conductances; a caller that holds the DC model fixed computes
// them once per bias and varies the rest.
func (d *PHEMT) SmallSignalFrom(b Bias, gm, gds float64) SmallSignal {
	return SmallSignal{
		Gm:  gm,
		Gds: gds,
		Cgs: d.Caps.Cgs(b.Vgs),
		Cgd: d.Caps.Cgd(b.Vds),
		Cds: d.Caps.Cds,
		Ri:  d.Ri,
		Tau: d.Tau,
	}
}

// NoisyAt returns the fully embedded noisy two-port of the device at bias b
// and frequency f.
func (d *PHEMT) NoisyAt(b Bias, f float64) (noise.TwoPort, error) {
	return d.NoisyAtState(d.BandStateAt(b), b, f)
}

// SAt returns the embedded S-parameters of the device at bias b, frequency
// f, referenced to z0.
func (d *PHEMT) SAt(b Bias, f, z0 float64) (twoport.Mat2, error) {
	tp, err := d.NoisyAt(b, f)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return tp.S(z0)
}

// NoiseParamsAt returns the four noise parameters of the embedded device.
func (d *PHEMT) NoiseParamsAt(b Bias, f, z0 float64) (noise.Params, error) {
	tp, err := d.NoisyAt(b, f)
	if err != nil {
		return noise.Params{}, err
	}
	return tp.NoiseParams(z0)
}

// FT returns the cutoff frequency at the bias point.
func (d *PHEMT) FT(b Bias) float64 { return d.SmallSignalAt(b).FT() }

// FukuiFmin returns the classical Fukui estimate of the minimum noise
// figure (linear) at frequency f and bias b, with fitting factor kf
// (typically ~2.5 for pHEMTs). It serves as an independent cross-check of
// the correlation-matrix analysis.
func (d *PHEMT) FukuiFmin(b Bias, f, kf float64) float64 {
	ss := d.SmallSignalAt(b)
	ft := ss.FT()
	if ft <= 0 {
		return math.Inf(1)
	}
	return 1 + kf*(f/ft)*math.Sqrt(ss.Gm*(d.Ext.Rg+d.Ext.Rs))
}

// GmCoefficients returns the first three derivatives of the drain current
// with respect to Vgs at bias b, the power-series coefficients used by the
// intermodulation analysis: ids(v) = Ids + gm1 v + gm2/2 v^2 + gm3/6 v^3.
func (d *PHEMT) GmCoefficients(b Bias) (gm1, gm2, gm3 float64) {
	return Gm(d.DC, b.Vgs, b.Vds), Gm2(d.DC, b.Vgs, b.Vds), Gm3(d.DC, b.Vgs, b.Vds)
}

package vna

import (
	"fmt"
	"math"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
)

// TwoToneConfig describes an intermodulation measurement.
type TwoToneConfig struct {
	// F1 and F2 are the tone frequencies in Hz (closely spaced, in-band).
	F1, F2 float64
	// Resolution is the spectral bin spacing; F1, F2 and the IM products
	// must all be integer multiples of it (e.g. 100 kHz for 1 MHz spacing).
	Resolution float64
}

// TwoToneResult reports the tone and intermod levels of one drive level.
type TwoToneResult struct {
	// DriveVolts is the per-tone gate drive amplitude.
	DriveVolts float64
	// PFundDBm is the output power of the f1 fundamental in dBm.
	PFundDBm float64
	// PIM3DBm is the output power of the 2f1-f2 product in dBm.
	PIM3DBm float64
}

func (c TwoToneConfig) validate() error {
	if c.F1 <= 0 || c.F2 <= 0 || c.F1 == c.F2 {
		return fmt.Errorf("%w: need two distinct positive tones", ErrBadConfig)
	}
	if c.Resolution <= 0 {
		return fmt.Errorf("%w: need positive resolution", ErrBadConfig)
	}
	for _, f := range []float64{c.F1, c.F2, 2*c.F1 - c.F2, 2*c.F2 - c.F1} {
		k := f / c.Resolution
		if math.Abs(k-math.Round(k)) > 1e-6 {
			return fmt.Errorf("%w: frequency %g not on the %g Hz grid", ErrBadConfig, f, c.Resolution)
		}
	}
	return nil
}

// RunTwoTone drives the transistor's nonlinear transconductance with a
// two-tone gate voltage around the bias point, samples the drain current
// waveform coherently at 8 times the highest tone and extracts the
// fundamental and IM3 tones with a Goertzel DFT. The returned powers are the
// tone powers delivered to a 50-ohm load.
func RunTwoTone(d *device.PHEMT, b device.Bias, drive float64, cfg TwoToneConfig) (TwoToneResult, error) {
	if err := cfg.validate(); err != nil {
		return TwoToneResult{}, err
	}
	fs, n := mathx.CoherentSampling([]float64{cfg.F1, cfg.F2}, cfg.Resolution, 8)
	x := make([]float64, n)
	w1 := 2 * math.Pi * cfg.F1
	w2 := 2 * math.Pi * cfg.F2
	for i := range x {
		t := float64(i) / fs
		vgs := b.Vgs + drive*(math.Cos(w1*t)+math.Cos(w2*t))
		x[i] = d.DC.Ids(vgs, b.Vds)
	}
	iFund := mathx.ToneAmplitude(x, cfg.F1, fs)
	iIM3 := mathx.ToneAmplitude(x, 2*cfg.F1-cfg.F2, fs)
	// Tone power delivered to the 50-ohm load: P = I^2 R / 2 for amplitude I.
	toDBm := func(iamp float64) float64 {
		p := iamp * iamp * 50 / 2
		if p <= 0 {
			return math.Inf(-1)
		}
		return mathx.WattsToDBm(p)
	}
	return TwoToneResult{
		DriveVolts: drive,
		PFundDBm:   toDBm(iFund),
		PIM3DBm:    toDBm(iIM3),
	}, nil
}

// IP3Result summarizes an intercept-point measurement.
type IP3Result struct {
	// OIP3DBm is the output third-order intercept point in dBm.
	OIP3DBm float64
	// SlopeFund and SlopeIM3 are the measured power slopes in dB/dB,
	// nominally 1 and 3.
	SlopeFund, SlopeIM3 float64
	// Points holds the per-drive measurements used for the fit.
	Points []TwoToneResult
}

// MeasureOIP3 sweeps the drive level, checks the 1:3 slope signature and
// extrapolates the output intercept point from the lowest measured drive
// (where the small-signal 3:1 law is cleanest).
func MeasureOIP3(d *device.PHEMT, b device.Bias, drives []float64, cfg TwoToneConfig) (IP3Result, error) {
	if len(drives) < 2 {
		return IP3Result{}, fmt.Errorf("%w: need at least two drive levels", ErrBadConfig)
	}
	var res IP3Result
	var inDB, fundDB, im3DB []float64
	for _, a := range drives {
		r, err := RunTwoTone(d, b, a, cfg)
		if err != nil {
			return IP3Result{}, err
		}
		res.Points = append(res.Points, r)
		inDB = append(inDB, 20*math.Log10(a))
		fundDB = append(fundDB, r.PFundDBm)
		im3DB = append(im3DB, r.PIM3DBm)
	}
	// Fit slopes (dB out per dB in).
	cf, err := mathx.PolyFit(inDB, fundDB, 1)
	if err != nil {
		return IP3Result{}, fmt.Errorf("vna: fundamental slope fit: %w", err)
	}
	ci, err := mathx.PolyFit(inDB, im3DB, 1)
	if err != nil {
		return IP3Result{}, fmt.Errorf("vna: IM3 slope fit: %w", err)
	}
	res.SlopeFund, res.SlopeIM3 = cf[1], ci[1]
	// Extrapolate from the lowest drive point: OIP3 = Pfund + (Pfund -
	// Pim3)/2.
	p0 := res.Points[0]
	res.OIP3DBm = p0.PFundDBm + (p0.PFundDBm-p0.PIM3DBm)/2
	return res, nil
}

// AnalyticOIP3 computes the output intercept point predicted by the
// power-series coefficients of the DC model at the bias point, the
// closed-form cross-check for the time-domain measurement:
// with id = gm1 v + gm2/2 v^2 + gm3/6 v^3, the IM3 current amplitude for
// per-tone drive a is |gm3| a^3 / 8 and the intercept follows from the
// 3:1 extrapolation.
func AnalyticOIP3(d *device.PHEMT, b device.Bias, loadOhms float64) float64 {
	gm1, _, gm3 := d.GmCoefficients(b)
	if gm3 == 0 {
		return math.Inf(1)
	}
	// Intercept drive amplitude: gm1 a = |gm3| a^3 / 8 => a^2 = 8 gm1/|gm3|.
	a2 := 8 * gm1 / math.Abs(gm3)
	iFund := gm1 * math.Sqrt(a2)
	p := iFund * iFund * loadOhms / 2
	return mathx.WattsToDBm(p)
}

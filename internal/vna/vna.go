// Package vna is the measurement substrate standing in for the paper's
// laboratory instruments: a synthetic vector network analyzer producing
// noisy S-parameter sweeps of a hidden "golden" device, a DC parameter
// analyzer producing noisy I-V grids, a noise-figure meter, and a two-tone
// intermodulation bench with Goertzel tone extraction. Extraction and
// verification code consumes these measurements exactly as it would consume
// instrument data, and — unlike in the paper — the golden device's true
// parameters remain available for accuracy grading.
package vna

import (
	"errors"
	"fmt"
	"math/rand"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/obs"
	"gnsslna/internal/twoport"
)

// ErrBadConfig reports an unusable instrument configuration.
var ErrBadConfig = errors.New("vna: invalid instrument configuration")

// VNA is a synthetic two-port vector network analyzer referenced to
// twoport.Z0Default.
type VNA struct {
	// SigmaAbs is the additive complex-Gaussian noise standard deviation
	// applied to each S-parameter (per real/imag part), e.g. 0.002 for a
	// calibrated instrument.
	SigmaAbs float64
	// Seed drives the deterministic noise generator.
	Seed int64
}

// NewVNA returns a calibrated instrument with a realistic trace-noise floor.
func NewVNA(seed int64) *VNA {
	return &VNA{SigmaAbs: 0.002, Seed: seed}
}

// MeasureDevice sweeps the device at the given bias over freqs and returns
// the noisy S-parameter network.
func (v *VNA) MeasureDevice(d *device.PHEMT, b device.Bias, freqs []float64) (*twoport.Network, error) {
	return v.Measure(freqs, func(f float64) (twoport.Mat2, error) {
		return d.SAt(b, f, twoport.Z0Default)
	})
}

// Measure sweeps an arbitrary S(f) responder and adds trace noise.
func (v *VNA) Measure(freqs []float64, s func(f float64) (twoport.Mat2, error)) (*twoport.Network, error) {
	if len(freqs) == 0 {
		return nil, fmt.Errorf("%w: empty frequency list", ErrBadConfig)
	}
	rng := rand.New(rand.NewSource(v.Seed))
	mats := make([]twoport.Mat2, len(freqs))
	for i, f := range freqs {
		m, err := s(f)
		if err != nil {
			return nil, fmt.Errorf("vna: measure at %g Hz: %w", f, err)
		}
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				m[r][c] += complex(rng.NormFloat64()*v.SigmaAbs, rng.NormFloat64()*v.SigmaAbs)
			}
		}
		mats[i] = m
	}
	return twoport.NewNetwork(twoport.Z0Default, freqs, mats)
}

// BiasSet couples one bias point with its measured network.
type BiasSet struct {
	// Bias is the DC operating point of the sweep.
	Bias device.Bias
	// Net is the measured S-parameter network.
	Net *twoport.Network
}

// Dataset is the complete measurement campaign the extraction consumes.
type Dataset struct {
	// Hot holds the active-bias S-parameter sweeps.
	Hot []BiasSet
	// ColdPinched is the Vds = 0, pinched-gate sweep used by the direct
	// parasitic extraction (step 1) for the terminal resistances.
	ColdPinched *twoport.Network
	// ColdPinchedBias records the bias of the pinched cold sweep.
	ColdPinchedBias device.Bias
	// ColdOpen is the Vds = 0, open-channel sweep used by step 1 for the
	// terminal inductances (the low channel resistance makes the series
	// inductances dominate the imaginary parts).
	ColdOpen *twoport.Network
	// ColdOpenBias records the bias of the open cold sweep.
	ColdOpenBias device.Bias
	// IV is the DC current grid: IV[i][j] = Ids at (VgsGrid[i], VdsGrid[j]).
	IV [][]float64
	// VgsGrid and VdsGrid are the DC sweep axes.
	VgsGrid, VdsGrid []float64
	// Z0 is the S-parameter reference impedance.
	Z0 float64
}

// CampaignConfig describes a measurement campaign: the fixed measurement
// plan below, run with the given seed.
type CampaignConfig struct {
	// Seed drives all instrument noise deterministically.
	Seed int64
	// Observer receives a "vna.campaign" span whose eval count is the
	// total number of measured points — S-parameter frequency points across
	// all sweeps plus I-V grid points (nil: disabled).
	Observer obs.Observer
}

// The measurement plan used across the experiments: a 0.5-3 GHz sweep at
// three bias points, two cold sweeps and a DC I-V grid.
var (
	campaignFreqs  = mathx.Linspace(0.5e9, 3e9, 21)
	campaignBiases = []device.Bias{
		{Vgs: 0.45, Vds: 3},
		{Vgs: 0.52, Vds: 3},
		{Vgs: 0.60, Vds: 3},
	}
	campaignVgsGrid = mathx.Linspace(0.2, 0.8, 13)
	campaignVdsGrid = mathx.Linspace(0.2, 4, 11)
)

// DefaultCampaign returns the campaign configuration for seed.
func DefaultCampaign(seed int64) CampaignConfig {
	return CampaignConfig{Seed: seed}
}

// RunCampaign executes the measurement campaign against the device.
func RunCampaign(d *device.PHEMT, cfg CampaignConfig) (*Dataset, error) {
	_, endSpan := obs.StartSpan(cfg.Observer, "vna.campaign")
	v := NewVNA(cfg.Seed)
	ds := &Dataset{Z0: twoport.Z0Default}
	for i, b := range campaignBiases {
		v.Seed = cfg.Seed + int64(i) + 1
		net, err := v.MeasureDevice(d, b, campaignFreqs)
		if err != nil {
			return nil, err
		}
		ds.Hot = append(ds.Hot, BiasSet{Bias: b, Net: net})
	}
	v.Seed = cfg.Seed + 1000
	cold := device.Bias{Vgs: -1.2, Vds: 0} // pinched gate
	coldNet, err := v.MeasureDevice(d, cold, campaignFreqs)
	if err != nil {
		return nil, err
	}
	ds.ColdPinched = coldNet
	ds.ColdPinchedBias = cold

	v.Seed = cfg.Seed + 1001
	open := device.Bias{Vgs: 0.7, Vds: 0} // open channel: gate well above threshold
	openNet, err := v.MeasureDevice(d, open, campaignFreqs)
	if err != nil {
		return nil, err
	}
	ds.ColdOpen = openNet
	ds.ColdOpenBias = open

	// DC grid with 1% relative current noise.
	rng := rand.New(rand.NewSource(cfg.Seed + 2000))
	ds.VgsGrid = append([]float64(nil), campaignVgsGrid...)
	ds.VdsGrid = append([]float64(nil), campaignVdsGrid...)
	ds.IV = make([][]float64, len(campaignVgsGrid))
	for i, vgs := range campaignVgsGrid {
		ds.IV[i] = make([]float64, len(campaignVdsGrid))
		for j, vds := range campaignVdsGrid {
			ids := d.DC.Ids(vgs, vds)
			ds.IV[i][j] = ids * (1 + 0.01*rng.NormFloat64())
		}
	}
	sweeps := len(campaignBiases) + 2 // hot biases + two cold sweeps
	endSpan(int64(sweeps*len(campaignFreqs) + len(campaignVgsGrid)*len(campaignVdsGrid)))
	return ds, nil
}

// NFMeter is a synthetic noise-figure analyzer.
type NFMeter struct {
	// SigmaDB is the NF measurement repeatability in dB (e.g. 0.05).
	SigmaDB float64
	// Seed drives the deterministic measurement noise.
	Seed int64
}

// MeasureNF returns the noise figure in dB of the noisy two-port produced
// by build(f), measured from a matched 50-ohm source at each frequency.
func (m *NFMeter) MeasureNF(freqs []float64, build func(f float64) (noise.TwoPort, error)) ([]float64, error) {
	rng := rand.New(rand.NewSource(m.Seed))
	out := make([]float64, len(freqs))
	for i, f := range freqs {
		tp, err := build(f)
		if err != nil {
			return nil, fmt.Errorf("vna: NF at %g Hz: %w", f, err)
		}
		nf := mathx.DB10(tp.FigureY(complex(1.0/twoport.Z0Default, 0)))
		out[i] = nf + rng.NormFloat64()*m.SigmaDB
	}
	return out, nil
}

package vna

import (
	"fmt"
	"math/rand"

	"gnsslna/internal/calib"
	"gnsslna/internal/device"
	"gnsslna/internal/twoport"
)

// RawChain is a VNA whose test set has NOT been calibrated out: every
// measurement passes through imperfect error adapters. It exposes the
// calibration workflow (measure standards, solve SOLT, correct) that a real
// campaign performs before any of the data in Dataset exists.
type RawChain struct {
	// Inner is the trace-noise model of the receiver.
	Inner *VNA
	// TestSet holds the error adapters at the two ports.
	TestSet calib.TestSet
}

// NewRawChain draws a random (but deterministic per seed) imperfect
// measurement chain.
func NewRawChain(seed int64) *RawChain {
	rng := rand.New(rand.NewSource(seed))
	return &RawChain{
		Inner:   NewVNA(seed + 1),
		TestSet: calib.RandomTestSet(rng),
	}
}

// MeasureRaw sweeps a DUT responder through the uncorrected test set.
func (r *RawChain) MeasureRaw(freqs []float64, dut func(f float64) (twoport.Mat2, error)) (*twoport.Network, error) {
	return r.Inner.Measure(freqs, func(f float64) (twoport.Mat2, error) {
		s, err := dut(f)
		if err != nil {
			return twoport.Mat2{}, err
		}
		return r.TestSet.Raw(s, twoport.Z0Default)
	})
}

// CalibrateAndMeasure performs the full calibrated workflow: measure the
// SOL standards at both ports and a through, solve the 8-term model, then
// measure the DUT raw and return the corrected network. The standards are
// measured with the same trace noise as the DUT.
func (r *RawChain) CalibrateAndMeasure(freqs []float64, dut func(f float64) (twoport.Mat2, error)) (*twoport.Network, error) {
	z0 := twoport.Z0Default
	// In this model the adapters are frequency-flat, so one calibration
	// serves the whole sweep (the general per-frequency case would repeat
	// this block per point).
	solA := calib.MeasureSOL(r.TestSet.PortA)
	solB := calib.MeasureSOL(r.TestSet.PortB)
	thruRaw, err := r.TestSet.Raw(twoport.Mat2{{0, 1}, {1, 0}}, z0)
	if err != nil {
		return nil, fmt.Errorf("vna: through standard: %w", err)
	}
	cal, err := calib.Calibrate(z0, solA, solB, thruRaw)
	if err != nil {
		return nil, fmt.Errorf("vna: calibration: %w", err)
	}
	raw, err := r.MeasureRaw(freqs, dut)
	if err != nil {
		return nil, err
	}
	corrected := make([]twoport.Mat2, raw.Len())
	for i := range raw.S {
		c, err := cal.Correct(raw.S[i])
		if err != nil {
			return nil, fmt.Errorf("vna: correction at %g Hz: %w", raw.Freqs[i], err)
		}
		corrected[i] = c
	}
	return twoport.NewNetwork(z0, raw.Freqs, corrected)
}

// MeasureDeviceCalibrated is a convenience wrapper for transistor sweeps.
func (r *RawChain) MeasureDeviceCalibrated(d *device.PHEMT, b device.Bias, freqs []float64) (*twoport.Network, error) {
	return r.CalibrateAndMeasure(freqs, func(f float64) (twoport.Mat2, error) {
		return d.SAt(b, f, twoport.Z0Default)
	})
}

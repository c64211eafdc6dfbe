package extract

import (
	"fmt"
	"math"
	"sync/atomic"

	"gnsslna/internal/device"
	"gnsslna/internal/optim"
	"gnsslna/internal/twoport"
	"gnsslna/internal/vna"
)

// rfParamCount is the dimension of the RF (capacitance/charging) parameter
// vector fitted in steps 2-3.
const rfParamCount = 11

// rfParamNames documents the RF parameter vector layout.
var rfParamNames = []string{
	"Cgs0", "CgsPinch", "CgsVmid", "CgsVscale",
	"Cgd0", "CgdVscale", "Cds", "Ri", "Tau", "Cpg", "Cpd",
}

// RFBounds returns the search box for the RF parameter vector.
func RFBounds() (lo, hi []float64) {
	lo = []float64{
		0.5e-12, 0.1e-12, 0.0, 0.05,
		0.05e-12, 0.5, 0.1e-12, 0.1, 0, 0.05e-12, 0.05e-12,
	}
	hi = []float64{
		3e-12, 1.5e-12, 0.6, 0.5,
		0.6e-12, 5, 1.5e-12, 5, 6e-12, 0.6e-12, 0.6e-12,
	}
	return lo, hi
}

// applyRF writes an RF parameter vector into a device.
func applyRF(d *device.PHEMT, p []float64) {
	d.Caps.Cgs0 = p[0]
	d.Caps.CgsPinch = p[1]
	d.Caps.CgsVmid = p[2]
	d.Caps.CgsVscale = p[3]
	d.Caps.Cgd0 = p[4]
	d.Caps.CgdVscale = p[5]
	d.Caps.Cds = p[6]
	d.Ri = p[7]
	d.Tau = p[8]
	d.Ext.Cpg = p[9]
	d.Ext.Cpd = p[10]
}

// rfVector reads the RF parameter vector out of a device.
func rfVector(d *device.PHEMT) []float64 {
	return []float64{
		d.Caps.Cgs0, d.Caps.CgsPinch, d.Caps.CgsVmid, d.Caps.CgsVscale,
		d.Caps.Cgd0, d.Caps.CgdVscale, d.Caps.Cds, d.Ri, d.Tau,
		d.Ext.Cpg, d.Ext.Cpd,
	}
}

// SResidualBuilder precomputes everything needed to evaluate the S-parameter
// residual of a candidate device against a dataset quickly and repeatedly.
type SResidualBuilder struct {
	ds    *vna.Dataset
	dc    device.DCModel
	ext   device.Extrinsics
	norms [2][2]float64
	// gm and gds are the frozen DC model's conductances at each hot bias
	// (device.Conductances), aligned with ds.Hot.
	gm, gds []float64
	// fitExt, when true, appends the six series parasitics to the parameter
	// vector (used by the DE-only baseline which has no step 1).
	fitExt bool
	// resLen is the precomputed residual-vector length.
	resLen int
	// evals is atomic: the optimizers may evaluate residuals from
	// concurrent worker goroutines.
	evals atomic.Int64
	// points tallies the frequency points rmseBounded computed.
	points pointTally
}

// NewSResidual builds a residual evaluator for the dataset with the DC model
// fixed and parasitics frozen to ext. dc must already be fitted and must
// not change while the evaluator is in use: the conductances at every hot
// bias are computed from it here, once, and every candidate reuses them.
func NewSResidual(ds *vna.Dataset, dc device.DCModel, ext device.Extrinsics, fitExt bool) (*SResidualBuilder, error) {
	if ds == nil || len(ds.Hot) == 0 {
		return nil, fmt.Errorf("%w: no hot S-parameter sweeps", ErrInsufficientData)
	}
	b := &SResidualBuilder{ds: ds, dc: dc, ext: ext, fitExt: fitExt}
	b.gm = make([]float64, len(ds.Hot))
	b.gds = make([]float64, len(ds.Hot))
	for k, set := range ds.Hot {
		b.gm[k], b.gds[k] = device.Conductances(dc, set.Bias)
	}
	// Normalize each S-parameter entry by its maximum magnitude over the
	// dataset so S21 (magnitude ~5) does not drown S12 (~0.05).
	for _, set := range ds.Hot {
		for _, s := range set.Net.S {
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					if m := absC(s[i][j]); m > b.norms[i][j] {
						b.norms[i][j] = m
					}
				}
			}
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if b.norms[i][j] <= 0 {
				b.norms[i][j] = 1
			}
		}
	}
	for _, set := range ds.Hot {
		b.resLen += 8 * len(set.Net.Freqs)
	}
	return b, nil
}

// Dim returns the length of the parameter vector the evaluator expects.
func (b *SResidualBuilder) Dim() int {
	if b.fitExt {
		return rfParamCount + 6
	}
	return rfParamCount
}

// Bounds returns the search box matching Dim.
func (b *SResidualBuilder) Bounds() (lo, hi []float64) {
	lo, hi = RFBounds()
	if b.fitExt {
		lo = append(lo, 0, 0, 0, 0, 0, 0)
		hi = append(hi, 5, 3, 5, 2e-9, 1.5e-9, 2e-9) // Rg Rs Rd Lg Ls Ld
	}
	return lo, hi
}

// Evals returns the number of residual evaluations so far.
func (b *SResidualBuilder) Evals() int { return int(b.evals.Load()) }

// device materializes a candidate device from a parameter vector. It
// returns a value so an evaluation does not allocate.
func (b *SResidualBuilder) device(p []float64) device.PHEMT {
	d := device.PHEMT{Name: "candidate", DC: b.dc, Ext: b.ext}
	applyRF(&d, p[:rfParamCount])
	if b.fitExt {
		d.Ext.Rg, d.Ext.Rs, d.Ext.Rd = p[11], p[12], p[13]
		d.Ext.Lg, d.Ext.Ls, d.Ext.Ld = p[14], p[15], p[16]
		d.Ext.Cpg, d.Ext.Cpd = p[9], p[10]
	}
	return d
}

// pointResiduals returns the 8 normalized residual components of one
// frequency point (real and imaginary part of S11, S12, S21, S22 minus the
// measurement), or the unusable-candidate row of 8 x 1e3 when the candidate
// yields no S-parameters there.
func (b *SResidualBuilder) pointResiduals(ss device.SmallSignal, ext device.Extrinsics, f float64, want twoport.Mat2) [8]float64 {
	got, err := device.SFromSmallSignal(ss, ext, f, b.ds.Z0)
	if err != nil {
		return [8]float64{1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3}
	}
	var r [8]float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			dv := (got[i][j] - want[i][j]) / complex(b.norms[i][j], 0)
			r[4*i+2*j], r[4*i+2*j+1] = real(dv), imag(dv)
		}
	}
	return r
}

// Residuals returns the normalized residual vector (real and imaginary part
// of every S-parameter entry at every frequency and bias). Each call
// returns a fresh vector, so it is safe for concurrent callers.
func (b *SResidualBuilder) Residuals(p []float64) []float64 {
	return b.residualsInto(make([]float64, b.resLen), p)
}

// residualsInto writes Residuals(p) into dst, of length resLen, and
// returns it.
func (b *SResidualBuilder) residualsInto(dst, p []float64) []float64 {
	b.evals.Add(1)
	d := b.device(p)
	i := 0
	for h, set := range b.ds.Hot {
		ss := d.SmallSignalFrom(set.Bias, b.gm[h], b.gds[h])
		for k, f := range set.Net.Freqs {
			r := b.pointResiduals(ss, d.Ext, f, set.Net.S[k])
			i += copy(dst[i:], r[:])
		}
	}
	return dst
}

// lmResiduals returns the residual function of one Levenberg-Marquardt
// fit. LM copies the residuals it keeps, so every call of the fit writes
// into one buffer; a fit is serial, so the buffer is never shared.
func (b *SResidualBuilder) lmResiduals() optim.ResidualFunc {
	buf := make([]float64, b.resLen)
	return func(p []float64) []float64 { return b.residualsInto(buf, p) }
}

// RMSE returns the scalar root-mean-square of the normalized residuals.
func (b *SResidualBuilder) RMSE(p []float64) float64 {
	return b.rmseBounded(p, math.Inf(1))
}

// rmseBounded is RMSE as an optim.BoundedObjective. It adds up the sum of
// squares point by point in Residuals' order and returns the partial
// root-mean-square as soon as that exceeds bound; the partial sum never
// decreases, so the full RMSE would exceed bound too. An evaluation that
// runs to the end returns exactly RMSE(p).
func (b *SResidualBuilder) rmseBounded(p []float64, bound float64) float64 {
	b.evals.Add(1)
	d := b.device(p)
	n := float64(b.resLen)
	var s float64
	computed := 0
	for h, set := range b.ds.Hot {
		ss := d.SmallSignalFrom(set.Bias, b.gm[h], b.gds[h])
		for k, f := range set.Net.Freqs {
			for _, v := range b.pointResiduals(ss, d.Ext, f, set.Net.S[k]) {
				s += v * v
			}
			computed++
			if rms := math.Sqrt(s / n); rms > bound {
				b.points.add(computed, b.resLen/8)
				return rms
			}
		}
	}
	b.points.add(computed, b.resLen/8)
	return math.Sqrt(s / n)
}

// SRMSEOfDevice grades an arbitrary device against a dataset with the same
// normalized metric (used to compare extracted devices to the golden one).
func SRMSEOfDevice(d *device.PHEMT, ds *vna.Dataset) (float64, error) {
	b, err := NewSResidual(ds, d.DC, d.Ext, false)
	if err != nil {
		return 0, err
	}
	return b.RMSE(rfVector(d)), nil
}

func absC(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

package extract

import (
	"fmt"
	"math"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/vna"
)

// DCFitResult reports the DC-model fit of step 2.
type DCFitResult struct {
	// Model is the fitted model (the same instance passed in, mutated).
	Model device.DCModel
	// RMSE is the root-mean-square current error in amperes.
	RMSE float64
	// RelRMSE is the RMSE normalized by the maximum measured current.
	RelRMSE float64
	// Evals counts model evaluations consumed by the fit.
	Evals int
}

// dcObjective is the DC fit's global-search objective: the RMS of the
// normalized I-V residuals, or 1e9 for a parameter vector the model
// rejects. It counts its evaluations and the grid points it computed, and
// owns the scratch of the model's grid evaluation, so an evaluation does
// not allocate.
type dcObjective struct {
	m      device.DCModel
	ds     *vna.Dataset
	scale  float64
	cols   []float64 // the model's Vds-only factors (DCModel.GridCols)
	row    []float64 // one Vgs row of model currents
	evals  int
	points pointTally
}

func newDCObjective(m device.DCModel, ds *vna.Dataset, scale float64) *dcObjective {
	n := len(ds.VdsGrid)
	return &dcObjective{
		m: m, ds: ds, scale: scale,
		cols: make([]float64, device.GridColFactors*n),
		row:  make([]float64, n),
	}
}

// residualLen is the length of the residual vector: one entry per I-V
// grid point.
func (o *dcObjective) residualLen() int { return len(o.ds.VgsGrid) * len(o.ds.VdsGrid) }

// residualsInto sets the model to p and writes the residual vector (model
// - measurement, normalized) of the I-V grid into dst, row by row; a
// vector the model rejects scores 1e6 at every point. dst has length
// residualLen; it is returned.
func (o *dcObjective) residualsInto(dst, p []float64) []float64 {
	if err := o.m.SetParams(p); err != nil {
		for i := range dst {
			dst[i] = 1e6
		}
		return dst
	}
	n := len(o.ds.VdsGrid)
	o.m.GridCols(o.ds.VdsGrid, o.cols)
	for i, vgs := range o.ds.VgsGrid {
		row := dst[i*n : (i+1)*n]
		o.m.GridRow(vgs, o.cols, row)
		meas := o.ds.IV[i][:n]
		for j := range row {
			row[j] = (row[j] - meas[j]) / o.scale
		}
	}
	return dst
}

// rmseBounded is the objective as an optim.BoundedObjective. It adds up the
// sum of squares in residualsInto's order and returns the partial
// root-mean-square as soon as that exceeds bound after a Vgs row; the
// partial sum never decreases, so the full RMS would exceed bound too. An
// evaluation that runs to the end returns exactly the RMS of residualsInto.
func (o *dcObjective) rmseBounded(p []float64, bound float64) float64 {
	o.evals++
	if err := o.m.SetParams(p); err != nil {
		return 1e9
	}
	rows, cols := len(o.ds.VgsGrid), len(o.ds.VdsGrid)
	if rows*cols == 0 {
		return 0
	}
	n := float64(rows * cols)
	var s float64
	o.m.GridCols(o.ds.VdsGrid, o.cols)
	for i, vgs := range o.ds.VgsGrid {
		o.m.GridRow(vgs, o.cols, o.row)
		meas := o.ds.IV[i][:cols]
		for j, ids := range o.row {
			v := (ids - meas[j]) / o.scale
			s += v * v
		}
		if rms := math.Sqrt(s / n); rms > bound {
			o.points.add((i+1)*cols, rows*cols)
			return rms
		}
	}
	o.points.add(rows*cols, rows*cols)
	return math.Sqrt(s / n)
}

func maxCurrent(ds *vna.Dataset) float64 {
	var m float64
	for _, row := range ds.IV {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	if m <= 0 {
		m = 1e-3
	}
	return m
}

// FitDC fits the DC model to the dataset's I-V grid: differential evolution
// over the model's parameter bounds followed by a Levenberg-Marquardt
// polish. The model instance is mutated to the fitted parameters.
func FitDC(m device.DCModel, ds *vna.Dataset, seed int64, budget int) (DCFitResult, error) {
	return fitDC(m, ds, seed, budget, nil, nil)
}

// FitDCControlled is FitDC with progress events and a run controller: the
// global and refinement stages emit convergence records under
// "extract.step2.dcfit.de" and "extract.step2.dcfit.lm", ctrl (may be nil)
// is polled by the nested DE and LM stages, and a stopped fit surfaces as a
// wrapped *resilience.Stopped error.
func FitDCControlled(m device.DCModel, ds *vna.Dataset, seed int64, budget int, o obs.Observer, ctrl *resilience.RunController) (DCFitResult, error) {
	return fitDC(m, ds, seed, budget, o, ctrl)
}

// fitDC is the core of FitDC and FitDCControlled: o (may be nil) receives
// the stages' progress events and ctrl (may be nil) is polled by the nested
// DE and LM stages.
func fitDC(m device.DCModel, ds *vna.Dataset, seed int64, budget int, o obs.Observer, ctrl *resilience.RunController) (DCFitResult, error) {
	if ds == nil || len(ds.IV) == 0 {
		return DCFitResult{}, fmt.Errorf("%w: no I-V grid", ErrInsufficientData)
	}
	if budget <= 0 {
		budget = 20000
	}
	scale := maxCurrent(ds)
	lo, hi := m.Bounds()
	obj := newDCObjective(m, ds, scale)
	pop := 10 * len(lo)
	if pop < 20 {
		pop = 20
	}
	gens := budget / pop
	if gens < 10 {
		gens = 10
	}
	de, err := deBounded(obj.rmseBounded, lo, hi, &optim.DEOptions{
		Pop: pop, Generations: gens, Seed: seed,
		Observer: o, Scope: "extract.step2.dcfit.de",
		Control: ctrl,
	})
	if err != nil {
		return DCFitResult{}, fmt.Errorf("extract: DC global fit: %w", err)
	}
	obj.points.emit(o, "extract.step2.dcfit.computed")
	// Levenberg-Marquardt copies the residuals it keeps, so the fit's
	// residual vectors share one buffer.
	buf := make([]float64, obj.residualLen())
	resid := func(p []float64) []float64 {
		obj.evals++
		return obj.residualsInto(buf, p)
	}
	lm, err := optim.LevenbergMarquardt(resid, de.X, &optim.LMOptions{
		MaxIter: 100, Lower: lo, Upper: hi,
		Observer: o, Scope: "extract.step2.dcfit.lm",
		Control: ctrl,
	})
	if err != nil {
		return DCFitResult{}, fmt.Errorf("extract: DC refinement: %w", err)
	}
	if err := m.SetParams(lm.X); err != nil {
		return DCFitResult{}, err
	}
	rel := mathx.RMS(obj.residualsInto(buf, lm.X))
	return DCFitResult{
		Model:   m,
		RMSE:    rel * scale,
		RelRMSE: rel,
		Evals:   obj.evals,
	}, nil
}

package extract

import (
	"fmt"
	"sync/atomic"

	"gnsslna/internal/device"
	"gnsslna/internal/obs"
	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/vna"
)

// Config budgets the extraction.
type Config struct {
	// Seed drives the deterministic global searches.
	Seed int64
	// DCEvals budgets the DC-model fit (default 20000).
	DCEvals int
	// GlobalEvals budgets the step-2 differential evolution on the RF
	// parameters (default 8000).
	GlobalEvals int
	// RefineIters budgets the step-3 Levenberg-Marquardt iterations
	// (default 60).
	RefineIters int
	// Workers bounds the goroutines the step-2 RF fit and the DE-only
	// baseline use to fan out residual evaluations (<= 1: serial). The DC
	// fit stays serial: its objective mutates one model instance. The
	// search trajectory is identical for any worker count.
	Workers int
	// NoiseModel, when set, is attached to the extracted device (the S and
	// I-V data do not constrain it; callers supply datasheet-style noise
	// temperatures).
	NoiseModel device.NoiseModel
	// Observer receives per-step spans ("extract.step1.coldfet",
	// "extract.step2.dcfit", "extract.step2.sfit", "extract.step3") and
	// the nested optimizers' convergence events under sub-scopes such as
	// "extract.step2.dcfit.de" and "extract.step3.lm" (nil: disabled).
	Observer obs.Observer
	// Control, when set, is polled by every nested optimizer; a stopped
	// run surfaces as a wrapped *resilience.Stopped error (nil: run to
	// completion).
	Control *resilience.RunController
}

func (c Config) defaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DCEvals <= 0 {
		c.DCEvals = 20000
	}
	if c.GlobalEvals <= 0 {
		c.GlobalEvals = 8000
	}
	if c.RefineIters <= 0 {
		c.RefineIters = 60
	}
	if c.NoiseModel == (device.NoiseModel{}) {
		c.NoiseModel = device.NoiseModel{Tg: 300, Td0: 850, TdSlope: 14000, Ta: 290}
	}
	return c
}

// Result reports a complete extraction.
type Result struct {
	// Device is the fully extracted transistor.
	Device *device.PHEMT
	// Cold holds the step-1 parasitic extraction.
	Cold ColdFETResult
	// DC holds the step-2 DC fit.
	DC DCFitResult
	// SRMSE is the final normalized S-parameter residual.
	SRMSE float64
	// SRMSEAfterDE is the residual after step 2, before refinement
	// (diagnostic for the method-comparison experiment).
	SRMSEAfterDE float64
	// SEvals counts S-residual evaluations across steps 2-3.
	SEvals int
}

// ThreeStep runs the full three-step identification of the given DC model
// class against the dataset and returns the extracted device.
func ThreeStep(ds *vna.Dataset, dc device.DCModel, cfg Config) (Result, error) {
	cfg = cfg.defaults()
	var res Result

	// Step 1: direct parasitic extraction from the cold sweeps.
	_, endCold := obs.StartSpan(cfg.Observer, "extract.step1.coldfet")
	cold, err := ColdFET(ds.ColdPinched, ds.ColdOpen)
	if err != nil {
		return Result{}, fmt.Errorf("extract: step 1: %w", err)
	}
	res.Cold = cold
	endCold(0)

	// Step 2a: global DC-model fit. The nested optimizers emit through the
	// step's span observer so their runs parent under the step in a trace.
	dcObs, endDC := obs.StartSpan(cfg.Observer, "extract.step2.dcfit")
	dcRes, err := fitDC(dc, ds, cfg.Seed, cfg.DCEvals, dcObs, cfg.Control)
	if err != nil {
		return Result{}, fmt.Errorf("extract: step 2 (DC): %w", err)
	}
	res.DC = dcRes
	endDC(int64(dcRes.Evals))

	// Step 2b: global RF fit with parasitics frozen.
	sObs, endS := obs.StartSpan(cfg.Observer, "extract.step2.sfit")
	sres, err := NewSResidual(ds, dc, cold.Ext, false)
	if err != nil {
		return Result{}, fmt.Errorf("extract: step 2 (RF): %w", err)
	}
	lo, hi := sres.Bounds()
	pop := 6 * sres.Dim()
	gens := cfg.GlobalEvals / pop
	if gens < 5 {
		gens = 5
	}
	de, err := deBounded(sres.rmseBounded, lo, hi, &optim.DEOptions{
		Pop: pop, Generations: gens, Seed: cfg.Seed,
		Observer: sObs, Scope: "extract.step2.sfit.de",
		Control: cfg.Control, Workers: cfg.Workers,
	})
	if err != nil {
		return Result{}, fmt.Errorf("extract: step 2 (RF DE): %w", err)
	}
	res.SRMSEAfterDE = de.F
	sres.points.emit(sObs, "extract.step2.sfit.computed")
	endS(int64(sres.Evals()))

	// Step 3: Levenberg-Marquardt joint refinement of the RF vector AND
	// the parasitics, warm-started from the DE solution and the step-1
	// estimates. The step-1 values carry small structural biases (Ri
	// dilution, pad loading) that the joint refinement absorbs.
	lmObs, endLM := obs.StartSpan(cfg.Observer, "extract.step3")
	sresJoint, err := NewSResidual(ds, dc, cold.Ext, true)
	if err != nil {
		return Result{}, fmt.Errorf("extract: step 3: %w", err)
	}
	sresJoint.evals.Store(int64(sres.Evals()))
	loJ, hiJ := sresJoint.Bounds()
	x0 := append(append([]float64(nil), de.X...),
		cold.Ext.Rg, cold.Ext.Rs, cold.Ext.Rd,
		cold.Ext.Lg, cold.Ext.Ls, cold.Ext.Ld)
	lm, err := optim.LevenbergMarquardt(sresJoint.Residuals, x0, &optim.LMOptions{
		MaxIter: cfg.RefineIters, Lower: loJ, Upper: hiJ,
		Observer: lmObs, Scope: "extract.step3.lm",
		Control: cfg.Control,
	})
	if err != nil {
		return Result{}, fmt.Errorf("extract: step 3: %w", err)
	}
	endLM(int64(sresJoint.Evals() - sres.Evals()))

	d := sresJoint.device(lm.X)
	d.Name = "extracted-" + dc.Name()
	d.Noise = cfg.NoiseModel
	res.Device = &d
	res.SRMSE = sresJoint.RMSE(lm.X)
	res.SEvals = sresJoint.Evals()
	return res, nil
}

// deBounded runs the bounded differential-evolution stages (the DC fit,
// the step-2 RF fit and the DE-only baseline); tests wrap it to check every
// objective call against the optim.BoundedObjective contract.
var deBounded = optim.DifferentialEvolutionBounded

// pointTally counts the residual points bounded evaluations computed
// against the points full evaluations would have computed. It is atomic
// because the RF fit evaluates on Workers goroutines.
type pointTally struct{ computed, full atomic.Int64 }

func (t *pointTally) add(computed, full int) {
	t.computed.Add(int64(computed))
	t.full.Add(int64(full))
}

// emit journals the computed share as one KindSample under scope.
func (t *pointTally) emit(o obs.Observer, scope string) {
	full := t.full.Load()
	if o == nil || full == 0 {
		return
	}
	o.Observe(obs.Event{Kind: obs.KindSample, Scope: scope, Value: float64(t.computed.Load()) / float64(full)})
}

// Method identifies an extraction strategy in the comparison experiment.
type Method string

// Extraction strategies compared by experiment E2.
const (
	MethodThreeStep Method = "three-step"
	MethodDEOnly    Method = "DE-only"
	MethodLMOnly    Method = "LM-only"
	MethodNMOnly    Method = "NM-only"
)

// MethodResult reports one strategy run of the comparison.
type MethodResult struct {
	// Method names the strategy.
	Method Method
	// SRMSE is the final normalized S residual.
	SRMSE float64
	// Evals counts S-residual evaluations.
	Evals int
}

// RunMethod runs one extraction strategy on the dataset with the given
// (already DC-fitted) model. The three-step strategy uses the cold sweep;
// the baselines must manage without it, exactly the handicap the paper's
// procedure removes.
func RunMethod(ds *vna.Dataset, dc device.DCModel, m Method, cfg Config) (MethodResult, error) {
	cfg = cfg.defaults()
	switch m {
	case MethodThreeStep:
		res, err := ThreeStep(ds, dc, cfg)
		if err != nil {
			return MethodResult{}, err
		}
		return MethodResult{Method: m, SRMSE: res.SRMSE, Evals: res.SEvals}, nil

	case MethodDEOnly:
		// No step 1: the six series parasitics join the search space.
		sres, err := NewSResidual(ds, dc, device.Extrinsics{}, true)
		if err != nil {
			return MethodResult{}, err
		}
		lo, hi := sres.Bounds()
		pop := 6 * sres.Dim()
		gens := (cfg.GlobalEvals + cfg.RefineIters*sres.Dim()) / pop
		if gens < 5 {
			gens = 5
		}
		de, err := deBounded(sres.rmseBounded, lo, hi, &optim.DEOptions{
			Pop: pop, Generations: gens, Seed: cfg.Seed,
			Observer: cfg.Observer, Scope: "extract.method.de",
			Control: cfg.Control, Workers: cfg.Workers,
		})
		if err != nil {
			return MethodResult{}, err
		}
		return MethodResult{Method: m, SRMSE: de.F, Evals: sres.Evals()}, nil

	case MethodLMOnly, MethodNMOnly:
		// Local method from a random start inside the box (parasitics
		// included: no cold-FET step).
		sres, err := NewSResidual(ds, dc, device.Extrinsics{}, true)
		if err != nil {
			return MethodResult{}, err
		}
		lo, hi := sres.Bounds()
		rng := randFrom(cfg.Seed)
		x0 := make([]float64, len(lo))
		for i := range x0 {
			x0[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		if m == MethodLMOnly {
			lm, err := optim.LevenbergMarquardt(sres.Residuals, x0, &optim.LMOptions{
				MaxIter: cfg.RefineIters * 4, Lower: lo, Upper: hi,
				Observer: cfg.Observer, Scope: "extract.method.lm",
				Control: cfg.Control,
			})
			if err != nil {
				return MethodResult{}, err
			}
			return MethodResult{Method: m, SRMSE: sres.RMSE(lm.X), Evals: sres.Evals()}, nil
		}
		nm, err := optim.NelderMead(sres.RMSE, x0, &optim.NMOptions{
			MaxEvals: cfg.GlobalEvals,
			Observer: cfg.Observer, Scope: "extract.method.nm",
			Control: cfg.Control,
		})
		if err != nil {
			return MethodResult{}, err
		}
		return MethodResult{Method: m, SRMSE: nm.F, Evals: sres.Evals()}, nil
	}
	return MethodResult{}, fmt.Errorf("extract: unknown method %q", m)
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"gnsslna/internal/core"
	"gnsslna/internal/device"
	"gnsslna/internal/experiments"
	"gnsslna/internal/extract"
	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
	"gnsslna/internal/vna"
)

// DesignResultDoc is the JSON result of a design job (the facade
// DesignReport, flattened for the wire).
type DesignResultDoc struct {
	Gamma      float64     `json:"gamma"`
	WorstNFdB  float64     `json:"worst_nf_db"`
	MinGTdB    float64     `json:"min_gt_db"`
	StabMargin float64     `json:"stab_margin"`
	IdsA       float64     `json:"ids_a"`
	PdcW       float64     `json:"pdc_w"`
	Design     core.Design `json:"design"`
	Snapped    core.Design `json:"snapped"`
}

// ExtractResultDoc is the JSON result of an extract job.
type ExtractResultDoc struct {
	Model     string  `json:"model"`
	DCRelRMSE float64 `json:"dc_rel_rmse"`
	SRMSE     float64 `json:"s_rmse"`
}

// SweepResultDoc is the JSON result of a Monte-Carlo yield sweep job.
type SweepResultDoc struct {
	Trials   int     `json:"trials"`
	PassRate float64 `json:"pass_rate"`
	NF95dB   float64 `json:"nf95_db"`
	GT5dB    float64 `json:"gt5_db"`
}

// stdRunner executes design/extract/sweep jobs through the same pipelines
// the facade workflows use, with the job's artifact directory holding the
// resilience checkpoint file. That file is the crash contract: a re-claimed
// job restores every completed stage and recomputes only the interrupted
// one, bit-identically (the PR-2 resume guarantee).
type stdRunner struct{}

// StdRunner returns the production Runner.
func StdRunner() Runner { return stdRunner{} }

// controller builds the job's RunController: the worker's attempt context
// carries the wall-clock bound, MaxEvals is the admission-clamped tenant
// budget.
func jobController(ctx context.Context, job *Job) *resilience.RunController {
	return resilience.NewController(resilience.ControllerOptions{
		Context:  ctx,
		MaxEvals: job.Spec.MaxEvals,
	})
}

func jobSeed(job *Job) int64 {
	if job.Spec.Seed == 0 {
		return 1
	}
	return job.Spec.Seed
}

// Run implements Runner.
func (stdRunner) Run(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
	checkpoint := filepath.Join(dir, "checkpoint.jsonl")
	suite := experiments.NewSuite(experiments.Config{
		Seed:       jobSeed(job),
		Quick:      job.Spec.Quick,
		Observer:   o,
		Control:    jobController(ctx, job),
		Checkpoint: checkpoint,
	})
	switch job.Spec.Type {
	case TypeDesign:
		res, err := suite.Design()
		if err != nil {
			return nil, fmt.Errorf("design: %w", err)
		}
		return marshalDoc(DesignResultDoc{
			Gamma:      res.Gamma,
			WorstNFdB:  res.SnappedEval.WorstNFdB,
			MinGTdB:    res.SnappedEval.MinGTdB,
			StabMargin: res.SnappedEval.StabMargin,
			IdsA:       res.SnappedEval.IdsA,
			PdcW:       res.SnappedEval.PdcW,
			Design:     res.Design,
			Snapped:    res.Snapped,
		})
	case TypeExtract:
		return runExtract(ctx, job, checkpoint, o)
	case TypeSweep:
		res, err := suite.Design()
		if err != nil {
			return nil, fmt.Errorf("sweep: design stage: %w", err)
		}
		designer, err := suite.Designer()
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		trials := job.Spec.Trials
		if trials <= 0 {
			trials = 200
		}
		rep, err := designer.Yield(res.Snapped, 0.05, trials, jobSeed(job))
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		return marshalDoc(SweepResultDoc{
			Trials: rep.Trials, PassRate: rep.PassRate, NF95dB: rep.NF95dB, GT5dB: rep.GT5dB,
		})
	}
	return nil, fmt.Errorf("serve: unknown job type %q", job.Spec.Type)
}

// runExtract extracts the named model class. The finished extraction is
// checkpointed under a model-specific stage, so a crash after completion
// resumes by restoring rather than recomputing.
func runExtract(ctx context.Context, job *Job, checkpoint string, o obs.Observer) (json.RawMessage, error) {
	model := job.Spec.Model
	if model == "" {
		model = "Angelov"
	}
	dc, ok := device.ModelByName(model)
	if !ok {
		return nil, fmt.Errorf("extract: unknown model %q", model)
	}
	stage := "serve.extract." + dc.Name()
	seed := jobSeed(job)
	var doc ExtractResultDoc
	if ok, err := resilience.RestoreCheckpoint(checkpoint, stage, seed, job.Spec.Quick, &doc); err == nil && ok {
		return marshalDoc(doc)
	}
	campaign := vna.DefaultCampaign(seed)
	campaign.Observer = o
	ds, err := vna.RunCampaign(device.Golden(), campaign)
	if err != nil {
		return nil, fmt.Errorf("extract: campaign: %w", err)
	}
	cfg := extract.Config{Seed: seed, Observer: o, Control: jobController(ctx, job)}
	if job.Spec.Quick {
		cfg = cfg.Quick()
	}
	res, err := extract.ThreeStep(ds, dc, cfg)
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	doc = ExtractResultDoc{Model: dc.Name(), DCRelRMSE: res.DC.RelRMSE, SRMSE: res.SRMSE}
	if err := resilience.SaveCheckpoint(checkpoint, stage, seed, job.Spec.Quick, doc); err != nil {
		return nil, fmt.Errorf("extract: checkpoint: %w", err)
	}
	return marshalDoc(doc)
}

func marshalDoc(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(b), nil
}

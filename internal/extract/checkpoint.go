package extract

import (
	"encoding/json"
	"fmt"

	"gnsslna/internal/device"
)

// deviceJSON is the serializable form of a *device.PHEMT: the DC model
// interface is flattened to its registered name plus parameter vector and
// rebuilt through device.ModelByName on load.
type deviceJSON struct {
	Name        string            `json:"name"`
	Model       string            `json:"model"`
	ModelParams []float64         `json:"model_params"`
	Caps        device.CapModel   `json:"caps"`
	Ri          float64           `json:"ri"`
	Tau         float64           `json:"tau"`
	Ext         device.Extrinsics `json:"ext"`
	Noise       device.NoiseModel `json:"noise"`
}

// resultJSON is the serializable form of Result used by checkpointing.
type resultJSON struct {
	Device       *deviceJSON   `json:"device"`
	Cold         ColdFETResult `json:"cold"`
	DCRMSE       float64       `json:"dc_rmse"`
	DCRelRMSE    float64       `json:"dc_rel_rmse"`
	DCEvals      int           `json:"dc_evals"`
	SRMSE        float64       `json:"srmse"`
	SRMSEAfterDE float64       `json:"srmse_after_de"`
	SEvals       int           `json:"sevals"`
}

// MarshalJSON serializes the extraction result, including the embedded
// device, so a Result survives a checkpoint/resume round trip.
func (r Result) MarshalJSON() ([]byte, error) {
	s := resultJSON{
		Cold:         r.Cold,
		DCRMSE:       r.DC.RMSE,
		DCRelRMSE:    r.DC.RelRMSE,
		DCEvals:      r.DC.Evals,
		SRMSE:        r.SRMSE,
		SRMSEAfterDE: r.SRMSEAfterDE,
		SEvals:       r.SEvals,
	}
	if r.Device != nil {
		s.Device = &deviceJSON{
			Name:        r.Device.Name,
			Model:       r.Device.DC.Name(),
			ModelParams: r.Device.DC.Params(),
			Caps:        r.Device.Caps,
			Ri:          r.Device.Ri,
			Tau:         r.Device.Tau,
			Ext:         r.Device.Ext,
			Noise:       r.Device.Noise,
		}
	}
	return json.Marshal(s)
}

// UnmarshalJSON rebuilds a Result (and its device, including the DC model
// instance) from the checkpoint form produced by MarshalJSON.
func (r *Result) UnmarshalJSON(b []byte) error {
	var s resultJSON
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	*r = Result{
		Cold:         s.Cold,
		DC:           DCFitResult{RMSE: s.DCRMSE, RelRMSE: s.DCRelRMSE, Evals: s.DCEvals},
		SRMSE:        s.SRMSE,
		SRMSEAfterDE: s.SRMSEAfterDE,
		SEvals:       s.SEvals,
	}
	if s.Device == nil {
		return nil
	}
	m, ok := device.ModelByName(s.Device.Model)
	if !ok {
		return fmt.Errorf("extract: checkpoint references unknown DC model %q", s.Device.Model)
	}
	if err := m.SetParams(s.Device.ModelParams); err != nil {
		return fmt.Errorf("extract: checkpoint device params: %w", err)
	}
	r.Device = &device.PHEMT{
		Name:  s.Device.Name,
		DC:    m,
		Caps:  s.Device.Caps,
		Ri:    s.Device.Ri,
		Tau:   s.Device.Tau,
		Ext:   s.Device.Ext,
		Noise: s.Device.Noise,
	}
	r.DC.Model = m
	return nil
}

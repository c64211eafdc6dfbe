// Command extract runs the three-step pHEMT identification against the
// synthetic measurement campaign and reports the extracted parameters. It
// can also export the measured and modeled S-parameters as Touchstone
// files for external plotting.
//
// Usage:
//
//	extract [-model Angelov|Curtice-2|Curtice-3|Statz|TOM] [-seed N]
//	        [-quick] [-out DIR] [-timeout 30s] [-max-evals N]
//	        [-checkpoint stages.jsonl] [-resume stages.jsonl]
//	        [-journal run.jsonl] [-metrics] [-pprof localhost:6060]
//	        [-serve 127.0.0.1:9090]
//
// The run is interruptible: Ctrl-C (or an expired -timeout / exhausted
// -max-evals budget) stops the fit cooperatively with a typed stop reason.
// With -checkpoint, a completed extraction is recorded and a rerun with the
// same model, seed and budgets restores it instead of recomputing.
//
// With -serve, a live telemetry endpoint exposes /metrics (Prometheus text
// format), /healthz, /runs, /events (SSE) and /debug/pprof while the run is
// in flight; the first Ctrl-C drains it before the final report prints.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gnsslna/internal/device"
	"gnsslna/internal/extract"
	"gnsslna/internal/obscli"
	"gnsslna/internal/resilience"
	"gnsslna/internal/touchstone"
	"gnsslna/internal/twoport"
	"gnsslna/internal/vna"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the extraction with the report on stdout and
// returns the process exit code: 0 on success, 1 when the run fails and 2
// on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "Angelov", "DC model class to extract")
	seed := fs.Int64("seed", 1, "deterministic seed")
	quick := fs.Bool("quick", false, "use reduced fitting budgets")
	outDir := fs.String("out", "", "directory for measured/modeled .s2p exports")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	session, err := obsFlags.Start(stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "extract:", err)
		return 1
	}
	runErr := identify(stdout, *model, *seed, *quick, *outDir, session)
	if err := session.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "extract:", runErr)
		return 1
	}
	return 0
}

// identify runs the extraction and writes its report to w.
func identify(w io.Writer, model string, seed int64, quick bool, outDir string, session *obscli.Session) error {
	dc, ok := device.ModelByName(model)
	if !ok {
		return fmt.Errorf("unknown model %q", model)
	}
	var dsExport *vna.Dataset

	// The checkpoint stage key folds the model name in, so different model
	// classes never restore each other's results.
	stage := "extract." + dc.Name()
	var res extract.Result
	restored := false
	if path := session.Checkpoint(); path != "" {
		ok, err := resilience.RestoreCheckpoint(path, stage, seed, quick, &res)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", path, err)
		}
		restored = ok && res.Device != nil
	}
	if restored {
		fmt.Fprintf(w, "restored completed %s extraction from %s\n", dc.Name(), session.Checkpoint())
		if err := dc.SetParams(res.Device.DC.Params()); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(w, "running synthetic measurement campaign (VNA + DC analyzer)...")
		campaign := vna.DefaultCampaign(seed)
		campaign.Observer = session.Observer()
		ds, err := vna.RunCampaign(device.Golden(), campaign)
		if err != nil {
			return err
		}
		cfg := extract.Config{Seed: seed, Observer: session.Observer(), Control: session.Controller(), Workers: session.Workers()}
		if quick {
			cfg = cfg.Quick()
		}
		fmt.Fprintf(w, "extracting %s (three-step: cold-FET direct + DE + LM)...\n", dc.Name())
		res, err = extract.ThreeStep(ds, dc, cfg)
		if err != nil {
			return err
		}
		if path := session.Checkpoint(); path != "" {
			if err := resilience.SaveCheckpoint(path, stage, seed, quick, res); err != nil {
				return fmt.Errorf("checkpoint %s: %w", path, err)
			}
		}
		dsExport = ds
	}

	fmt.Fprintf(w, "\nstep 1 parasitics: Rg=%.2f Rs=%.2f Rd=%.2f ohm  Lg=%.0f Ls=%.0f Ld=%.0f pH\n",
		res.Cold.Ext.Rg, res.Cold.Ext.Rs, res.Cold.Ext.Rd,
		res.Cold.Ext.Lg*1e12, res.Cold.Ext.Ls*1e12, res.Cold.Ext.Ld*1e12)
	fmt.Fprintf(w, "step 2 DC fit    : RMSE %.3f mA (%.2f%% rel) over the I-V grid\n",
		res.DC.RMSE*1e3, res.DC.RelRMSE*100)
	fmt.Fprintf(w, "step 2 RF (DE)   : normalized S RMSE %.4f\n", res.SRMSEAfterDE)
	fmt.Fprintf(w, "step 3 (LM joint): normalized S RMSE %.4f after %d S evaluations\n",
		res.SRMSE, res.SEvals)
	fmt.Fprintf(w, "\n%s parameters:\n", dc.Name())
	names := dc.ParamNames()
	for i, v := range dc.Params() {
		fmt.Fprintf(w, "  %-8s %.5g\n", names[i], v)
	}
	d := res.Device
	fmt.Fprintf(w, "RF parameters:\n  Cgs0=%.3g pF  CgsPinch=%.3g pF  Cgd0=%.3g pF  Cds=%.3g pF\n"+
		"  Ri=%.2f ohm  Tau=%.2f ps  Cpg=%.3g pF  Cpd=%.3g pF\n",
		d.Caps.Cgs0*1e12, d.Caps.CgsPinch*1e12, d.Caps.Cgd0*1e12, d.Caps.Cds*1e12,
		d.Ri, d.Tau*1e12, d.Ext.Cpg*1e12, d.Ext.Cpd*1e12)

	if outDir == "" {
		return nil
	}
	if dsExport == nil {
		// The extraction was restored from a checkpoint; rerun only the
		// (cheap) measurement campaign to export against.
		campaign := vna.DefaultCampaign(seed)
		campaign.Observer = session.Observer()
		ds, err := vna.RunCampaign(device.Golden(), campaign)
		if err != nil {
			return err
		}
		dsExport = ds
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for i, set := range dsExport.Hot {
		measPath := filepath.Join(outDir, fmt.Sprintf("measured_bias%d.s2p", i+1))
		if err := writeNet(measPath, set.Net,
			fmt.Sprintf("golden device measured at Vgs=%.2f Vds=%.2f", set.Bias.Vgs, set.Bias.Vds)); err != nil {
			return err
		}
		mats := make([]twoport.Mat2, len(set.Net.Freqs))
		for k, f := range set.Net.Freqs {
			s, err := d.SAt(set.Bias, f, dsExport.Z0)
			if err != nil {
				return err
			}
			mats[k] = s
		}
		modelNet, err := twoport.NewNetwork(dsExport.Z0, set.Net.Freqs, mats)
		if err != nil {
			return err
		}
		modelPath := filepath.Join(outDir, fmt.Sprintf("model_bias%d.s2p", i+1))
		if err := writeNet(modelPath, modelNet,
			fmt.Sprintf("extracted %s at Vgs=%.2f Vds=%.2f", dc.Name(), set.Bias.Vgs, set.Bias.Vds)); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nwrote %d Touchstone file pairs to %s\n", len(dsExport.Hot), outDir)
	return nil
}

func writeNet(path string, net *twoport.Network, comment string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return touchstone.Write(f, net, touchstone.FormatMA, comment)
}

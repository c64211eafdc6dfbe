// Command lnaopt runs the complete multi-constellation preamplifier design
// flow: synthetic measurement campaign, three-step Angelov extraction, and
// improved goal-attainment selection of the operating point and passive
// elements. It prints the finished design and, optionally, its component
// sensitivity and specification yield.
//
// Usage:
//
//	lnaopt [-seed N] [-quick] [-sens] [-yield N]
//	       [-timeout 30s] [-max-evals N] [-checkpoint stages.jsonl]
//	       [-resume stages.jsonl] [-restarts N]
//	       [-journal run.jsonl] [-metrics] [-pprof localhost:6060]
//	       [-serve 127.0.0.1:9090]
//
// The run is interruptible: Ctrl-C (or an expired -timeout / exhausted
// -max-evals budget) stops the optimizers cooperatively and the best design
// found so far is reported together with the stop reason. With -checkpoint,
// completed stages (extraction, design) are recorded and a rerun with the
// same seed and budgets resumes from them bit-identically.
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

	"gnsslna/internal/core"
	"gnsslna/internal/experiments"
	"gnsslna/internal/obscli"
	"gnsslna/internal/resilience"
	"gnsslna/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the design flow with the report on stdout and
// returns the process exit code: 0 on success, 1 when the run fails and 2
// on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lnaopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "deterministic seed")
	quick := fs.Bool("quick", false, "use reduced optimization budgets")
	sens := fs.Bool("sens", false, "print the component sensitivity table")
	yieldN := fs.Int("yield", 0, "run an N-trial Monte Carlo tolerance yield analysis")
	bom := fs.Bool("bom", false, "design the DC bias network and print the bill of materials")
	vcc := fs.Float64("vcc", 5, "supply voltage for the bias network")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	session, err := obsFlags.Start(stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "lnaopt:", err)
		return 1
	}
	runErr := design(stdout, *seed, *quick, *sens, *yieldN, *bom, *vcc, session)
	if err := session.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "lnaopt:", runErr)
		return 1
	}
	return 0
}

// design runs the flow and writes its report to w.
func design(w io.Writer, seed int64, quick, sens bool, yieldN int, bom bool, vcc float64, session *obscli.Session) error {
	suite := experiments.NewSuite(experiments.Config{
		Seed: seed, Quick: quick, Observer: session.Observer(),
		Control: session.Controller(), Checkpoint: session.Checkpoint(), Restarts: session.Restarts(),
		Workers: session.Workers(),
	})
	fmt.Fprintln(w, "extracting pHEMT model from the synthetic measurement campaign...")
	ex, err := suite.Extracted()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  extracted %s: DC rel RMSE %.2f%%, S RMSE %.4f\n",
		ex.Device.Name, ex.DC.RelRMSE*100, ex.SRMSE)

	fmt.Fprintln(w, "optimizing operating point and passive elements (improved goal attainment)...")
	res, err := suite.Design()
	if err != nil {
		st, ok := resilience.AsStopped(err)
		if !ok || res == nil {
			return err
		}
		fmt.Fprintf(w, "  run stopped early (%s): reporting the best design found so far\n", st.Reason)
	}
	d := res.Snapped
	e := res.SnappedEval
	fmt.Fprintf(w, "  gamma = %.3f (<= 0: all goals met), %d band evaluations\n\n", res.Gamma, res.Evals)
	fmt.Fprintf(w, "operating point : Vgs=%.3f V  Vds=%.2f V  Ids=%.1f mA  Pdc=%.0f mW\n",
		d.Vgs, d.Vds, e.IdsA*1e3, e.PdcW*1e3)
	fmt.Fprintf(w, "elements (E24)  : Lin=%s  Ldeg=%s  Lout=%s  Cout=%s\n",
		units.Format(d.LIn, "H"), units.Format(d.LDegen, "H"),
		units.Format(d.LOut, "H"), units.Format(d.COut, "F"))
	fmt.Fprintf(w, "band 1.15-1.65  : NFmax=%.3f dB  GTmin=%.2f dB  S11<=%.1f dB  S22<=%.1f dB  stab margin=%.3f\n",
		e.WorstNFdB, e.MinGTdB, e.WorstS11dB, e.WorstS22dB, e.StabMargin)

	bands := core.GNSSBands()
	designer, err := suite.Designer()
	if err != nil {
		return err
	}
	amp, err := designer.Builder.Build(d)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nper-constellation performance:")
	for _, b := range bands {
		m, err := amp.MetricsAt(b.Center, 50)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s %.5f GHz  NF=%.3f dB  GT=%.2f dB\n", b.Name, b.Center/1e9, m.NFdB, m.GTdB)
	}

	if sens {
		fmt.Fprintln(w, "\ncomponent sensitivity (+/-5%):")
		entries, err := designer.Sensitivity(d, 0.05)
		if err != nil {
			return err
		}
		for _, s := range entries {
			fmt.Fprintf(w, "  %-8s dNF=%.3f dB  dGT=%.3f dB\n", s.Param, s.DeltaNFdB, s.DeltaGTdB)
		}
	}
	if yieldN > 0 {
		fmt.Fprintf(w, "\nMonte Carlo yield (%d trials, 5%% element tolerance):\n", yieldN)
		rep, err := designer.Yield(d, 0.05, yieldN, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  pass rate %.0f%%  NF 95th percentile %.3f dB  GT 5th percentile %.2f dB\n",
			rep.PassRate*100, rep.NF95dB, rep.GT5dB)
	}
	if bom {
		bn, err := designer.DesignBiasNetwork(d, vcc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nbias network from %.1f V supply (nonlinear DC verified):\n", vcc)
		fmt.Fprintf(w, "  achieved Vgs=%.3f V Vds=%.2f V Ids=%.1f mA\n",
			bn.Achieved.Vgs, bn.Achieved.Vds, bn.Achieved.IdsA*1e3)
		fmt.Fprintln(w, "\nbill of materials:")
		for _, l := range designer.BOM(d, bn) {
			fmt.Fprintf(w, "  %-4s %-10s %s\n", l.Ref, l.Value, l.Role)
		}
		pu, err := designer.PowerUpCheck(bn, 1e-4)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\npower-up transient (100 us supply ramp): gate peak %.3f V, "+
			"settled %.3f V (overshoot %.1f%%), drain settles %.2f V\n",
			pu.GatePeak, pu.GateFinal, pu.OvershootFrac*100, pu.DrainFinal)
	}
	return nil
}

// Command sweep evaluates the optimized preamplifier over frequency and
// prints the paper-style S-parameter/NF table, optionally exporting the
// response as a Touchstone file.
//
// Usage:
//
//	sweep [-seed N] [-quick] [-from GHz] [-to GHz] [-points N] [-s2p FILE]
//
// The shared observability flags (-journal, -metrics, -serve, -pprof,
// -timeout, -max-evals, -workers, ...) are available as in lnaopt.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gnsslna/internal/experiments"
	"gnsslna/internal/mathx"
	"gnsslna/internal/obscli"
	"gnsslna/internal/touchstone"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the sweep with the table on stdout and returns the
// process exit code: 0 on success, 1 when the run fails and 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "deterministic seed")
	quick := fs.Bool("quick", false, "use reduced optimization budgets")
	from := fs.Float64("from", 1.0, "sweep start in GHz")
	to := fs.Float64("to", 1.8, "sweep stop in GHz")
	points := fs.Int("points", 17, "number of sweep points")
	s2p := fs.String("s2p", "", "optional Touchstone output path")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	session, err := obsFlags.Start(stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	runErr := sweep(stdout, *seed, *quick, *from*1e9, *to*1e9, *points, *s2p, session)
	if err := session.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "sweep:", runErr)
		return 1
	}
	return 0
}

// sweep designs the amplifier and writes its table to w.
func sweep(w io.Writer, seed int64, quick bool, from, to float64, points int, s2p string, session *obscli.Session) error {
	if points < 2 || to <= from {
		return fmt.Errorf("invalid sweep range")
	}
	suite := experiments.NewSuite(experiments.Config{
		Seed: seed, Quick: quick, Observer: session.Observer(),
		Control: session.Controller(), Checkpoint: session.Checkpoint(),
		Restarts: session.Restarts(), Workers: session.Workers(),
	})
	res, err := suite.Design()
	if err != nil {
		return err
	}
	designer, err := suite.Designer()
	if err != nil {
		return err
	}
	amp, err := designer.Builder.Build(res.Snapped)
	if err != nil {
		return err
	}
	freqs := mathx.Linspace(from, to, points)
	fmt.Fprintln(w, "f [GHz]   NF [dB]  Fmin [dB]  GT [dB]  S11 [dB]  S22 [dB]      K     mu   tg [ns]")
	for _, f := range freqs {
		m, err := amp.MetricsAt(f, 50)
		if err != nil {
			return err
		}
		gd, err := amp.GroupDelay(f, 50, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%7.4f  %7.3f  %9.3f  %7.2f  %8.1f  %8.1f  %5.2f  %5.3f  %8.3f\n",
			f/1e9, m.NFdB, m.FminDB, m.GTdB, m.S11dB, m.S22dB, m.K, m.Mu, gd*1e9)
	}
	if s2p == "" {
		return nil
	}
	net, err := amp.Network(freqs, 50)
	if err != nil {
		return err
	}
	out, err := os.Create(s2p)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := touchstone.Write(out, net, touchstone.FormatDB,
		"gnsslna optimized multi-constellation preamplifier"); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", s2p)
	return nil
}

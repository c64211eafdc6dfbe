// Command experiments regenerates the reconstructed evaluation tables and
// figures (E1-E9 in DESIGN.md).
//
// Usage:
//
//	experiments [-e e1|e2|...|e12|all] [-seed N] [-quick] [-md] [-figs]
//	            [-timeout 5m] [-max-evals N] [-checkpoint stages.jsonl]
//	            [-resume stages.jsonl] [-restarts N]
//	            [-journal run.jsonl] [-metrics] [-pprof localhost:6060]
//	            [-serve 127.0.0.1:9090]
//
// -md prints every table as GitHub-flavored markdown (the -e selection
// does not apply); -figs appends the ASCII figures after the tables.
//
// The run is interruptible: Ctrl-C (or an expired -timeout / exhausted
// -max-evals budget) stops the optimizers cooperatively with a typed stop
// reason. With -checkpoint, the shared stages (extraction, design) are
// recorded and a rerun with the same seed and budgets resumes from them.
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
	"strings"

	"gnsslna/internal/experiments"
	"gnsslna/internal/obscli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the experiments with the tables (and figures) on
// stdout and returns the process exit code: 0 on success, 1 when the run
// fails and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("e", "all", "experiment to run: e1..e12 (and e4b) or all")
	seed := fs.Int64("seed", 1, "deterministic seed")
	quick := fs.Bool("quick", false, "use reduced optimization budgets")
	figs := fs.Bool("figs", false, "also render the ASCII figures")
	markdown := fs.Bool("md", false, "emit GitHub-flavored markdown tables")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	session, err := obsFlags.Start(stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	runErr := report(stdout, *exp, *seed, *quick, *figs, *markdown, session)
	if err := session.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "experiments:", runErr)
		return 1
	}
	return 0
}

// report runs the selected experiments and writes their tables to w: every
// table as markdown with -md, otherwise the one selected (or all) as text,
// then the figures with -figs.
func report(w io.Writer, exp string, seed int64, quick, figs, markdown bool, session *obscli.Session) error {
	s := experiments.NewSuite(experiments.Config{
		Seed: seed, Quick: quick, Observer: session.Observer(),
		Control: session.Controller(), Checkpoint: session.Checkpoint(), Restarts: session.Restarts(),
		Workers: session.Workers(),
	})

	switch {
	case markdown:
		tables, err := s.All()
		if err != nil {
			return err
		}
		for i := range tables {
			fmt.Fprintln(w, tables[i].Markdown())
		}
	case exp == "all":
		tables, err := s.All()
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Fprintln(w, t.Render())
		}
	default:
		t, err := s.Run(exp)
		if err != nil {
			if errors.Is(err, experiments.ErrUnknownExperiment) {
				return fmt.Errorf("unknown experiment %q (want %s or all)",
					exp, strings.Join(s.IDs(), ", "))
			}
			return err
		}
		fmt.Fprint(w, t.Render())
	}

	if figs {
		figures, err := s.Figures()
		if err != nil {
			return fmt.Errorf("figures: %w", err)
		}
		for _, f := range figures {
			fmt.Fprintln(w)
			fmt.Fprint(w, f)
		}
	}
	return nil
}

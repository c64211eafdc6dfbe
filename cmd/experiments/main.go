// Command experiments regenerates the reconstructed evaluation tables and
// figures (E1-E9 in DESIGN.md).
//
// Usage:
//
//	experiments [-e e1|e2|...|e12|all] [-seed N] [-quick]
//	            [-timeout 5m] [-max-evals N] [-checkpoint stages.jsonl]
//	            [-resume stages.jsonl] [-restarts N]
//	            [-journal run.jsonl] [-metrics] [-pprof localhost:6060]
//	            [-serve 127.0.0.1:9090]
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
	"os"
	"strings"

	"gnsslna/internal/experiments"
	"gnsslna/internal/obscli"
)

func main() {
	exp := flag.String("e", "all", "experiment to run: e1..e12 (and e4b) or all")
	seed := flag.Int64("seed", 1, "deterministic seed")
	quick := flag.Bool("quick", false, "use reduced optimization budgets")
	figs := flag.Bool("figs", false, "also render the ASCII figures")
	markdown := flag.Bool("md", false, "emit GitHub-flavored markdown tables")
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()

	session, err := obsFlags.Start(os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	runErr := run(*exp, *seed, *quick, *figs, *markdown, session)
	if err := session.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(exp string, seed int64, quick, figs, markdown bool, session *obscli.Session) error {
	s := experiments.NewSuite(experiments.Config{
		Seed: seed, Quick: quick, Observer: session.Observer(),
		Control: session.Controller(), Checkpoint: session.Checkpoint(), Restarts: session.Restarts(),
		Workers: session.Workers(),
	})

	if markdown {
		tables, err := s.All()
		if err != nil {
			return err
		}
		for i := range tables {
			fmt.Println(tables[i].Markdown())
		}
		return nil
	}

	if exp == "all" {
		tables, err := s.All()
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	} else {
		t, err := s.Run(exp)
		if err != nil {
			if errors.Is(err, experiments.ErrUnknownExperiment) {
				return fmt.Errorf("unknown experiment %q (want %s or all)",
					exp, strings.Join(s.IDs(), ", "))
			}
			return err
		}
		fmt.Print(t.Render())
	}

	if figs {
		figures, err := s.Figures()
		if err != nil {
			return fmt.Errorf("figures: %w", err)
		}
		for _, f := range figures {
			fmt.Println()
			fmt.Print(f)
		}
	}
	return nil
}

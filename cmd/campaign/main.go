// Command campaign runs declarative design campaigns: a YAML/JSON spec
// enumerates a (band, spec, substrate, device variant, algorithm, seed)
// grid, and each cell is optimized deterministically and checkpointed, so
// a killed run resumes bit-identically.
//
// Usage:
//
//	campaign run   -spec examples/campaigns/gnss-l1-l5.yaml -out out/ [-parallel N] [-journal run.jsonl]
//	campaign cells -spec examples/campaigns/gnss-l1-l5.yaml [-json]
//	campaign check -out out/
//
// run executes (or resumes) the campaign into -out: cells already recorded
// in out/campaign.checkpoint.jsonl under the identical spec are restored,
// the rest computed, and campaign.summary.json plus RESULTS.md written.
// cells prints the expanded grid without running anything. check is the
// publish gate: the summary must parse, match its own counts, contain no
// failed cells, and regenerate RESULTS.md byte-identically.
//
// Compare two campaign outputs with `obsreport campaign-diff`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gnsslna/internal/campaign"
	"gnsslna/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the message main prints for err: internal/campaign's errors
// already start with "campaign: ", and every other error gets that prefix.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "campaign: ") {
		return msg
	}
	return "campaign: " + msg
}

func usage() error {
	return fmt.Errorf("usage: campaign run|cells|check [flags] (see go doc gnsslna/cmd/campaign)")
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet("campaign "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "campaign spec file (.yaml/.yml/.json)")
	outDir := fs.String("out", "", "output directory (summary, RESULTS.md, checkpoint)")
	parallel := fs.Int("parallel", 1, "cells optimized concurrently (never changes results)")
	journalPath := fs.String("journal", "", "write solver convergence events to this JSONL journal")
	asJSON := fs.Bool("json", false, "emit JSON instead of text (cells only)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usage()
	}

	switch cmd {
	case "run":
		if *specPath == "" || *outDir == "" {
			return usage()
		}
		spec, err := campaign.Load(*specPath)
		if err != nil {
			return err
		}
		opts := campaign.RunOptions{
			OutDir:   *outDir,
			Parallel: *parallel,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(stderr, "campaign: "+format+"\n", a...)
			},
		}
		if *journalPath != "" {
			j, err := obs.OpenJournal(*journalPath)
			if err != nil {
				return err
			}
			defer j.Close()
			if err := j.AppendEpoch(); err != nil {
				return err
			}
			opts.Observer = obs.NewHub(nil, j)
		}
		s, err := campaign.Run(spec, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign %s: %d cells, %d ok, %d meet spec -> %s\n",
			s.Name, s.CellCount, s.OKCount, s.MeetsSpecCount,
			filepath.Join(*outDir, campaign.SummaryFile))
		if s.OKCount != s.CellCount {
			return fmt.Errorf("%d cells failed (see %s)", s.CellCount-s.OKCount, filepath.Join(*outDir, campaign.ResultsFile))
		}
		return nil
	case "cells":
		if *specPath == "" {
			return usage()
		}
		spec, err := campaign.Load(*specPath)
		if err != nil {
			return err
		}
		cells := spec.Expand()
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(cells)
		}
		fmt.Fprintf(stdout, "campaign %s (digest %s): %d cells\n", spec.Name, spec.Digest(), len(cells))
		for _, c := range cells {
			fmt.Fprintf(stdout, "  %3d  %s\n", c.Index, c.ID)
		}
		return nil
	case "check":
		if *outDir == "" {
			return usage()
		}
		return check(stdout, *outDir)
	}
	return usage()
}

// check is the publish gate of a finished campaign directory.
func check(stdout io.Writer, dir string) error {
	s, err := campaign.LoadSummary(filepath.Join(dir, campaign.SummaryFile))
	if err != nil {
		return err
	}
	if s.CellCount != len(s.Cells) {
		return fmt.Errorf("check: summary cell_count %d != %d cells", s.CellCount, len(s.Cells))
	}
	ok, meets := 0, 0
	for _, c := range s.Cells {
		if c.Status == "ok" {
			ok++
		}
		if c.MeetsSpec {
			meets++
		}
	}
	if ok != s.OKCount || meets != s.MeetsSpecCount {
		return fmt.Errorf("check: summary counts (%d ok, %d meet) disagree with cells (%d, %d)",
			s.OKCount, s.MeetsSpecCount, ok, meets)
	}
	if ok != s.CellCount {
		return fmt.Errorf("check: %d of %d cells failed", s.CellCount-ok, s.CellCount)
	}
	// RESULTS.md must be the summary's own rendering — regenerating it
	// must change nothing.
	md, err := os.ReadFile(filepath.Join(dir, campaign.ResultsFile))
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if string(md) != s.ResultsMarkdown() {
		return fmt.Errorf("check: RESULTS.md is stale — regenerate it with campaign run")
	}
	fmt.Fprintf(stdout, "check ok: campaign %s, %d cells, %d meet spec, RESULTS.md current\n",
		s.Name, s.CellCount, s.MeetsSpecCount)
	return nil
}

// Command bench is the end-to-end and per-layer benchmark of the design
// service. It runs four closed-loop workloads (eval-cold, design, extract,
// serve-repeat), each measured in fresh child processes of its own so the
// process-wide evaluation memo, the pools and the heap never carry over from
// one workload or run to the next. See README.md.
//
//	bash bench/run.sh --workload eval-cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// processStart anchors setup_s: set-up runs from process start to the first
// timed op.
var processStart = time.Now()

const (
	// setupRounds is how many fresh processes set a workload up in an
	// untraced run; setup_s is their median.
	setupRounds = 5
	// runBudget bounds all processes of one workload's run.
	runBudget = 170 * time.Second
	// scratchRoot holds the runs' scratch directories, inside the checkout.
	scratchRoot = ".bench_build"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "all", "eval-cold, design, extract, serve-repeat, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are derived from")
	seconds := flag.Float64("seconds", 25, "seconds each run measures")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	child := flag.String("child", "", "internal: act as the measuring process (setup or run)")
	dir := flag.String("dir", "", "internal: the measuring process's scratch directory")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		flag.Usage()
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *child != "" {
		return childMain(ws[0], env{seed: *seed, dir: *dir}, dur, *child, *trace == 1)
	}
	code := 0
	for _, w := range ws {
		rep, err := drive(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		if !printReport(w, rep) {
			code = 1
		}
	}
	return code
}

// childMain is the measuring process: it runs one workload and writes its
// report as JSON to standard output.
func childMain(w workload, e env, dur time.Duration, mode string, traced bool) int {
	var rep *report
	var err error
	switch {
	case mode == "setup":
		rep, err = runSetup(w, e)
	case mode == "run" && traced:
		rep, err = runTraced(w, e, dur, fullProbes)
	case mode == "run":
		rep, err = runUntraced(w, e, dur)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// drive runs one workload in child processes: setupRounds-1 set-up-only
// processes, then the measuring one, in a scratch directory it removes.
func drive(w workload, seed int64, seconds float64, traced bool) (*report, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	spawn := func(mode string) (*report, *syscall.Rusage, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, nil, err
		}
		cmd := exec.CommandContext(ctx, exe,
			"-child", mode, "-workload", w.name, "-dir", dir, "-trace", trace,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("%s process: %w", mode, err)
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			return nil, nil, fmt.Errorf("%s process report: %w", mode, err)
		}
		return &rep, cmd.ProcessState.SysUsage().(*syscall.Rusage), nil
	}

	var setups []float64
	for i := 1; i < setupRounds && !traced; i++ {
		rep, _, err := spawn("setup")
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.SetupS)
	}
	rep, usage, err := spawn("run")
	if err != nil {
		return nil, err
	}
	if !traced {
		rep.Metrics = append(rep.Metrics,
			metric{"setup_s", median(append(setups, rep.SetupS)), "s"},
			// Linux reports ru_maxrss in KiB.
			metric{"max_rss_mb", float64(usage.Maxrss) / 1024, "MB"})
	}
	return rep, nil
}

// printReport prints one metric per line, then the result as the last line:
// a JSON object with the op tally and every metric. It reports whether
// every op succeeded and every output checked out.
func printReport(w workload, rep *report) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s\n", p)
	}
	for _, m := range rep.Metrics {
		fmt.Printf("%-12s %-24s %16.9g %s\n", w.name, m.Name, m.Value, m.Unit)
		if !finite(m.Value) {
			fmt.Fprintf(os.Stderr, "bench: %s: %s is %v\n", w.name, m.Name, m.Value)
			result.Failed++
			continue
		}
		result.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	for _, m := range rep.Diagnostics {
		fmt.Printf("%-12s # %-22s %16.9g %s\n", w.name, m.Name, m.Value, m.Unit)
	}
	result.Correct = result.Failed == 0 && result.Attempted > 0
	b, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}
	fmt.Println(string(b))
	return result.Correct
}

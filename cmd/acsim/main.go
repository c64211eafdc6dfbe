// Command acsim runs a SPICE-flavored AC netlist through the MNA engine and
// prints (or exports) the two-port S-parameters. It makes the simulator
// usable on arbitrary circuits without writing Go:
//
//	acsim circuit.cir              # print |S11|, |S21| over the .ac sweep
//	acsim -s2p out.s2p circuit.cir # also write a Touchstone file
//
// Netlist cards: R/L/C <n1> <n2> <value>, G <o+> <o-> <c+> <c-> <gm>,
// T <n1> <n2> Z0= LEN= [EPS= LOSS=], .ac lin|log <f1> <f2> <n>,
// .ports <in> <out>. Values accept engineering suffixes (5.6n, 1.5p, 1G).
//
// The shared observability flags (-journal, -metrics, -serve, -pprof, ...)
// are available as in lnaopt; the MNA solve is journaled as one span.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/cmplx"
	"os"

	"gnsslna/internal/mathx"
	"gnsslna/internal/netlist"
	"gnsslna/internal/obs"
	"gnsslna/internal/obscli"
	"gnsslna/internal/touchstone"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, simulates the netlist with the table on stdout and
// returns the process exit code: 0 on success, 1 when the run fails and 2
// on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	s2p := fs.String("s2p", "", "optional Touchstone output path")
	obsFlags := obscli.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: acsim [-s2p out.s2p] <netlist file>")
		return 2
	}
	session, err := obsFlags.Start(stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "acsim:", err)
		return 1
	}
	runErr := simulate(stdout, fs.Arg(0), *s2p, session)
	if err := session.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "acsim:", runErr)
		return 1
	}
	return 0
}

// simulate runs the netlist at path and writes its table to w.
func simulate(w io.Writer, path, s2p string, session *obscli.Session) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	deck, err := netlist.Parse(f)
	if err != nil {
		return err
	}
	if deck.Title != "" {
		fmt.Fprintf(w, "* %s\n", deck.Title)
	}
	// One span per solve: the MNA sweep's frequency-point count is the
	// natural evaluation unit for the journal.
	_, endSolve := obs.StartSpan(session.Observer(), "acsim.solve")
	net, err := deck.Run()
	if err != nil {
		endSolve(0)
		return err
	}
	endSolve(int64(len(net.Freqs)))
	fmt.Fprintln(w, "f [GHz]    |S11| [dB]   |S21| [dB]   |S12| [dB]   |S22| [dB]")
	for i, fr := range net.Freqs {
		s := net.S[i]
		fmt.Fprintf(w, "%8.4f   %10.2f   %10.2f   %10.2f   %10.2f\n",
			fr/1e9,
			mathx.DB20(cmplx.Abs(s[0][0])),
			mathx.DB20(cmplx.Abs(s[1][0])),
			mathx.DB20(cmplx.Abs(s[0][1])),
			mathx.DB20(cmplx.Abs(s[1][1])))
	}
	if s2p == "" {
		return nil
	}
	out, err := os.Create(s2p)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := touchstone.Write(out, net, touchstone.FormatDB, "acsim: "+deck.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", s2p)
	return nil
}

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
	"flag"
	"fmt"
	"math/cmplx"
	"os"

	"gnsslna/internal/mathx"
	"gnsslna/internal/netlist"
	"gnsslna/internal/obs"
	"gnsslna/internal/obscli"
	"gnsslna/internal/touchstone"
)

func main() {
	s2p := flag.String("s2p", "", "optional Touchstone output path")
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: acsim [-s2p out.s2p] <netlist file>")
		os.Exit(2)
	}
	session, err := obsFlags.Start(os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acsim:", err)
		os.Exit(1)
	}
	runErr := run(flag.Arg(0), *s2p, session)
	if err := session.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "acsim:", runErr)
		os.Exit(1)
	}
}

func run(path, s2p string, session *obscli.Session) error {
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
		fmt.Printf("* %s\n", deck.Title)
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
	fmt.Println("f [GHz]    |S11| [dB]   |S21| [dB]   |S12| [dB]   |S22| [dB]")
	for i, fr := range net.Freqs {
		s := net.S[i]
		fmt.Printf("%8.4f   %10.2f   %10.2f   %10.2f   %10.2f\n",
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
	fmt.Printf("wrote %s\n", s2p)
	return nil
}

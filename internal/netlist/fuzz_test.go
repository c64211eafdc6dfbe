package netlist

import (
	"os"
	"strings"
	"testing"
)

// FuzzParse drives the netlist parser with arbitrary decks. Properties:
// Parse never panics; an accepted deck's .ac grid is absent or holds
// 2..maxACPoints points; and a deck with a short sweep and both ports runs
// to a network of one point per frequency or to an error, never a panic.
func FuzzParse(f *testing.F) {
	deck, err := os.ReadFile("../../examples/netlists/gnss_match.cir")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(deck))
	f.Add("* every card\n; comment\nR1 in a 50\nC1 a 0 1.5p\nL1 a b 5.6n\nG1 out 0 b 0 0.08\n" +
		"T1 b out Z0=75 LEN=12m EPS=2.9 LOSS=2\n.ac log 1G 2G 5\n.ports in out\n")
	f.Add("R1 in out 50\n.ac lin 1 2 4611686018427387904\n.ports in out\n")
	f.Add("R1 in 0 50\n.ac lin 1G 2G 3\n.ports in in\n")
	f.Add("L1 in out 1n\n.ac lin 1G 2G 2\n.ports in out\n")
	f.Add("G1 out 0 in 0 1e9\n.ac lin 1G 1.1G 2\n.ports in out\n")
	f.Add(".ac lin 1G 2G 3\n.ports a b\n")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if n := len(d.Freqs); n != 0 && (n < 2 || n > maxACPoints) {
			t.Fatalf("accepted a sweep of %d points", n)
		}
		if len(d.Freqs) > 64 || d.PortIn == "" || d.PortOut == "" {
			return
		}
		net, err := d.Run()
		if err == nil && net.Len() != len(d.Freqs) {
			t.Fatalf("Run returned %d points for a %d-point sweep", net.Len(), len(d.Freqs))
		}
	})
}

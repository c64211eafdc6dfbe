// Package netlist parses a SPICE-flavored text netlist into the AC
// modified-nodal-analysis engine, making the simulator usable on arbitrary
// circuits without writing Go:
//
//   - GNSS input match          <- title/comment lines start with * or ;
//     R1 in  n1 50
//     L1 n1  n2 5.6n
//     C1 n2  0  1.5p
//     G1 n2 0 out 0 0.08         <- VCCS: out-nodes then control-nodes, gm
//     T1 n2 out Z0=50 LEN=12m EPS=2.9  <- ideal line
//     .ac lin 1.1G 1.7G 13
//     .ports in out
//
// Component values accept engineering suffixes (p, n, u, m, k, M, G) via
// the units package.
package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"gnsslna/internal/mathx"
	"gnsslna/internal/mna"
	"gnsslna/internal/twoport"
	"gnsslna/internal/units"
)

// ErrSyntax reports an unparsable netlist line.
var ErrSyntax = errors.New("netlist: syntax error")

// maxACPoints bounds the .ac point count: the sweep grid is allocated at
// parse time, so an unbounded count from the deck would let one line
// exhaust memory.
const maxACPoints = 100_000

// Deck is a parsed netlist ready to simulate.
type Deck struct {
	// Title is the leading comment, if any.
	Title string
	// Circuit is the assembled MNA circuit.
	Circuit *mna.Circuit
	// Freqs is the .ac sweep grid (nil if the card is absent).
	Freqs []float64
	// PortIn and PortOut are the .ports nodes ("" if absent).
	PortIn, PortOut string
}

// Parse reads a netlist deck.
func Parse(r io.Reader) (*Deck, error) {
	d := &Deck{Circuit: mna.New()}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "*") || strings.HasPrefix(line, ";") {
			if d.Title == "" {
				d.Title = strings.TrimSpace(strings.TrimLeft(line, "*; "))
			}
			continue
		}
		if err := d.parseLine(line); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	return d, nil
}

func (d *Deck) parseLine(line string) error {
	fields := strings.Fields(line)
	card := strings.ToUpper(fields[0])
	switch {
	case strings.HasPrefix(card, ".AC"):
		return d.parseAC(fields)
	case strings.HasPrefix(card, ".PORTS"):
		if len(fields) != 3 {
			return fmt.Errorf("%w: .ports wants two nodes", ErrSyntax)
		}
		d.PortIn, d.PortOut = fields[1], fields[2]
		return nil
	case strings.HasPrefix(card, "."):
		return fmt.Errorf("%w: unknown card %q", ErrSyntax, fields[0])
	case card[0] == 'R':
		return d.parseTwoNode(fields, func(a, b string, v float64) { d.Circuit.AddR(a, b, v) })
	case card[0] == 'C':
		return d.parseTwoNode(fields, func(a, b string, v float64) { d.Circuit.AddC(a, b, v) })
	case card[0] == 'L':
		return d.parseTwoNode(fields, func(a, b string, v float64) { d.Circuit.AddL(a, b, v) })
	case card[0] == 'G':
		return d.parseVCCS(fields)
	case card[0] == 'T':
		return d.parseLineCard(fields)
	default:
		return fmt.Errorf("%w: unknown element %q", ErrSyntax, fields[0])
	}
}

func (d *Deck) parseTwoNode(fields []string, add func(a, b string, v float64)) error {
	if len(fields) != 4 {
		return fmt.Errorf("%w: %s wants <name> <n1> <n2> <value>", ErrSyntax, fields[0])
	}
	v, err := units.Parse(fields[3])
	if err != nil {
		return fmt.Errorf("%w: value %q", ErrSyntax, fields[3])
	}
	if v <= 0 {
		return fmt.Errorf("%w: non-positive value %q", ErrSyntax, fields[3])
	}
	add(fields[1], fields[2], v)
	return nil
}

func (d *Deck) parseVCCS(fields []string) error {
	if len(fields) != 6 {
		return fmt.Errorf("%w: G wants <name> <out+> <out-> <c+> <c-> <gm>", ErrSyntax)
	}
	gm, err := units.Parse(fields[5])
	if err != nil {
		return fmt.Errorf("%w: gm %q", ErrSyntax, fields[5])
	}
	d.Circuit.AddVCCS(fields[3], fields[4], fields[1], fields[2], gm, 0)
	return nil
}

func (d *Deck) parseLineCard(fields []string) error {
	if len(fields) < 5 {
		return fmt.Errorf("%w: T wants <name> <n1> <n2> Z0=.. LEN=.. [EPS=..] [LOSS=..]", ErrSyntax)
	}
	z0, length, eps, loss := 50.0, 0.0, 1.0, 0.0
	for _, f := range fields[3:] {
		kv := strings.SplitN(f, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("%w: expected key=value, got %q", ErrSyntax, f)
		}
		v, err := units.Parse(kv[1])
		if err != nil {
			return fmt.Errorf("%w: %q", ErrSyntax, f)
		}
		switch strings.ToUpper(kv[0]) {
		case "Z0":
			z0 = v
		case "LEN":
			length = v
		case "EPS":
			eps = v
		case "LOSS": // dB/m
			loss = v
		default:
			return fmt.Errorf("%w: unknown line parameter %q", ErrSyntax, kv[0])
		}
	}
	if length <= 0 || z0 <= 0 || eps < 1 {
		return fmt.Errorf("%w: line needs positive Z0/LEN and EPS >= 1", ErrSyntax)
	}
	const c0 = 299792458.0
	alpha := loss / 8.686 // Np/m
	d.Circuit.AddLine(fields[1], fields[2],
		func(float64) complex128 { return complex(z0, 0) },
		func(f float64) complex128 {
			return complex(alpha, 2*math.Pi*f*math.Sqrt(eps)/c0)
		},
		length)
	return nil
}

func (d *Deck) parseAC(fields []string) error {
	// .ac lin f1 f2 n
	if len(fields) != 5 || strings.ToLower(fields[1]) != "lin" && strings.ToLower(fields[1]) != "log" {
		return fmt.Errorf("%w: .ac wants lin|log <f1> <f2> <n>", ErrSyntax)
	}
	f1, err := units.Parse(fields[2])
	if err != nil {
		return fmt.Errorf("%w: %q", ErrSyntax, fields[2])
	}
	f2, err := units.Parse(fields[3])
	if err != nil {
		return fmt.Errorf("%w: %q", ErrSyntax, fields[3])
	}
	n, err := strconv.Atoi(fields[4])
	if err != nil || n < 2 || n > maxACPoints {
		return fmt.Errorf("%w: point count %q, want 2..%d", ErrSyntax, fields[4], maxACPoints)
	}
	if f2 <= f1 || f1 <= 0 {
		return fmt.Errorf("%w: sweep range [%g, %g]", ErrSyntax, f1, f2)
	}
	if strings.ToLower(fields[1]) == "log" {
		d.Freqs = mathx.Logspace(f1, f2, n)
	} else {
		d.Freqs = mathx.Linspace(f1, f2, n)
	}
	return nil
}

// Run executes the deck's .ac sweep between its .ports and returns the
// S-parameter network at 50 ohm.
func (d *Deck) Run() (*twoport.Network, error) {
	if len(d.Freqs) == 0 {
		return nil, errors.New("netlist: deck has no .ac card")
	}
	if d.PortIn == "" || d.PortOut == "" {
		return nil, errors.New("netlist: deck has no .ports card")
	}
	return d.Circuit.SParams2(d.Freqs, d.PortIn, d.PortOut, 50)
}

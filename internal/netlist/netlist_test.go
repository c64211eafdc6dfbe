package netlist

import (
	"errors"
	"math"
	"math/cmplx"
	"strconv"
	"strings"
	"testing"
)

func TestParseAndRunAttenuator(t *testing.T) {
	// The 6 dB tee attenuator as a netlist must match the algebraic result.
	src := `* 6 dB tee attenuator
R1 in  m  16.61
R2 m   out 16.61
R3 m   0  66.93
.ac lin 1G 2G 3
.ports in out
`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Title != "6 dB tee attenuator" {
		t.Errorf("title = %q", d.Title)
	}
	net, err := d.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if net.Len() != 3 {
		t.Fatalf("points = %d", net.Len())
	}
	for i := range net.S {
		loss := -20 * math.Log10(cmplx.Abs(net.S[i][1][0]))
		if math.Abs(loss-6) > 0.02 {
			t.Errorf("point %d: loss %.3f dB, want 6", i, loss)
		}
		if cmplx.Abs(net.S[i][0][0]) > 0.01 {
			t.Errorf("point %d: |S11| = %g, want ~0", i, cmplx.Abs(net.S[i][0][0]))
		}
	}
}

func TestParseLCFilterShape(t *testing.T) {
	// A series-L shunt-C lowpass must pass low frequencies and block high.
	src := `* LC lowpass
L1 in  mid 8n
C1 mid 0   3p
R1 mid out 0.001
.ac lin 0.2G 6G 30
.ports in out
`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	net, err := d.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	lowGain := cmplx.Abs(net.S[0][1][0])
	highGain := cmplx.Abs(net.S[net.Len()-1][1][0])
	if lowGain < 0.7 {
		t.Errorf("passband |S21| = %g, want near 1", lowGain)
	}
	if highGain > lowGain/3 {
		t.Errorf("stopband |S21| = %g not attenuated vs %g", highGain, lowGain)
	}
}

func TestParseVCCSAmplifier(t *testing.T) {
	// A VCCS with input/output 50-ohm resistors behaves as a gain stage.
	src := `* vccs amp
R1 in  0 50
G1 out 0 in 0 0.08
R2 out 0 50
.ac lin 1G 2G 2
.ports in out
`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	net, err := d.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if g := cmplx.Abs(net.S[0][1][0]); g < 1 {
		t.Errorf("|S21| = %g, want gain > 1", g)
	}
}

func TestParseTransmissionLine(t *testing.T) {
	// A quarter-wave 100-ohm line at 1.5 GHz transforms a 50-ohm port; at
	// the design frequency |S11| peaks, at DC-ish frequencies it vanishes.
	const c0 = 299792458.0
	quarter := c0 / (4 * 1.5e9) // eps = 1
	src := `* line
T1 in out Z0=100 LEN=` + formatLen(quarter) + ` EPS=1
.ac lin 0.1G 1.5G 15
.ports in out
`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	net, err := d.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	first := cmplx.Abs(net.S[0][0][0])
	last := cmplx.Abs(net.S[net.Len()-1][0][0])
	if last <= first {
		t.Errorf("|S11| should peak at quarter-wave: %g -> %g", first, last)
	}
	// Quarter-wave transformer of Z0=100 on 50-ohm ports: Zin = 200,
	// S11 = 150/250 = 0.6.
	if math.Abs(last-0.6) > 0.01 {
		t.Errorf("quarter-wave |S11| = %g, want 0.6", last)
	}
}

func formatLen(l float64) string {
	return strconv.FormatFloat(l, 'f', 9, 64)
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown element": "X1 a b 5\n",
		"bad value":       "R1 a b zz\n",
		"neg value":       "R1 a b -5\n",
		"short R":         "R1 a b\n",
		"bad vccs":        "G1 a b c 0.1\n",
		"bad line param":  "T1 a b Q=5 LEN=1m\n",
		"line no len":     "T1 a b Z0=50 EPS=2\n",
		"bad ac":          ".ac lin 1G 2G\n",
		"ac range":        ".ac lin 2G 1G 5\n",
		"ac too long":     ".ac lin 1 2 4611686018427387904\n",
		"unknown card":    ".foo\n",
		"short ports":     ".ports a\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: %q: got %v, want ErrSyntax", name, src, err)
		}
	}
	// A deck without .ac or .ports parses but cannot run.
	d, err := Parse(strings.NewReader("R1 a 0 50\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := d.Run(); err == nil {
		t.Error("deck without sweep cards ran")
	}
}

package mna

import (
	"errors"
	"testing"

	"gnsslna/internal/mathx"
)

// bandTestCircuit builds a representative amplifier-shaped netlist hitting
// every element kind: resistors, reactive two-nodes, a delay-free and a
// delayed VCCS, and a transmission line.
func bandTestCircuit() *Circuit {
	c := New()
	c.AddR("in", "g", 5)
	c.AddC("g", "0", 0.4e-12)
	c.AddC("g", "d", 0.05e-12)
	c.AddVCCS("g", "0", "d", "0", 0.08, 1.5e-12)
	c.AddVCCS("d", "0", "0", "d", 1e-4, 0) // static output conductance
	c.AddR("d", "out", 3)
	c.AddL("out", "0", 8e-9)
	zc := func(float64) complex128 { return complex(50, 0) }
	gamma := func(f float64) complex128 { return complex(0.1, 2*3.141592653589793*f/3e8) }
	c.AddLine("out", "p2", zc, gamma, 2e-3)
	return c
}

func bandGrid() []float64 { return mathx.Logspace(100e6, 10e9, 17) }

// TestSParamsBandMatchesFresh demands that one grid pass over a reused
// circuit — scratch matrix and factorization reused across points — equal
// (==) per-point computes on fresh circuits.
func TestSParamsBandMatchesFresh(t *testing.T) {
	grid := bandGrid()
	band, err := bandTestCircuit().SParams2(grid, "in", "p2", 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range grid {
		one, err := bandTestCircuit().SParams2([]float64{f}, "in", "p2", 50)
		if err != nil {
			t.Fatalf("fresh solve at %g Hz: %v", f, err)
		}
		if band.S[i] != one.S[0] {
			t.Fatalf("at %g Hz: reused-circuit grid S %v != fresh S %v", f, band.S[i], one.S[0])
		}
	}
}

// TestSParamsBandSeesAddedElement adds an element after a grid pass and
// demands the next pass see it: the result must equal a fresh circuit built
// with the full netlist.
func TestSParamsBandSeesAddedElement(t *testing.T) {
	grid := bandGrid()
	c := bandTestCircuit()
	before, err := c.SParams2(grid, "in", "p2", 50)
	if err != nil {
		t.Fatal(err)
	}
	c.AddR("p2", "0", 200)
	after, err := c.SParams2(grid, "in", "p2", 50)
	if err != nil {
		t.Fatal(err)
	}
	fresh := bandTestCircuit()
	fresh.AddR("p2", "0", 200)
	want, err := fresh.SParams2(grid, "in", "p2", 50)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range grid {
		if after.S[i] != want.S[i] {
			t.Fatalf("point %d: incremental circuit %v != fresh %v", i, after.S[i], want.S[i])
		}
		if after.S[i] != before.S[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("added shunt resistor left every S-parameter bit-identical")
	}
}

// TestSParamsBandErrors covers the port-name contract.
func TestSParamsBandErrors(t *testing.T) {
	c := bandTestCircuit()
	if _, err := c.SParams2([]float64{1e9}, "nosuch", "p2", 50); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("unknown input port: error %v, want ErrNoSuchNode", err)
	}
	if _, err := c.SParams2([]float64{1e9}, "in", "nosuch", 50); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("unknown output port: error %v, want ErrNoSuchNode", err)
	}
}

// TestSParams2Delegates pins that SParams2 hands its matrices to
// twoport.NewNetwork: the network carries the call's z0 and grid, and the
// grid and reference checks of NewNetwork reach the caller.
func TestSParams2Delegates(t *testing.T) {
	grid := bandGrid()
	net, err := bandTestCircuit().SParams2(grid, "in", "p2", 75)
	if err != nil {
		t.Fatal(err)
	}
	if net.Z0 != 75 || len(net.Freqs) != len(grid) || len(net.S) != len(grid) {
		t.Fatalf("network Z0 %g with %d freqs / %d matrices, want 75 and %d", net.Z0, len(net.Freqs), len(net.S), len(grid))
	}
	for i, f := range grid {
		if net.Freqs[i] != f {
			t.Fatalf("freq %d: %g, want %g", i, net.Freqs[i], f)
		}
	}
	if _, err := bandTestCircuit().SParams2([]float64{2e9, 1e9}, "in", "p2", 50); err == nil {
		t.Error("decreasing grid accepted")
	}
	if _, err := bandTestCircuit().SParams2(nil, "in", "p2", 50); err == nil {
		t.Error("empty grid accepted")
	}
}

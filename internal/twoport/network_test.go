package twoport

import (
	"math/cmplx"
	"testing"
)

func TestNewNetworkValidation(t *testing.T) {
	s := []Mat2{{}, {}}
	if _, err := NewNetwork(50, []float64{1e9, 2e9}, s); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
	if _, err := NewNetwork(50, []float64{2e9, 1e9}, s); err == nil {
		t.Error("decreasing frequencies accepted")
	}
	if _, err := NewNetwork(50, []float64{1e9}, s); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewNetwork(-1, []float64{1e9, 2e9}, s); err == nil {
		t.Error("negative Z0 accepted")
	}
	if _, err := NewNetwork(50, nil, nil); err == nil {
		t.Error("empty network accepted")
	}
}

func TestNetworkAtInterpolates(t *testing.T) {
	s := []Mat2{
		{{0, 0}, {complex(1, 0), 0}},
		{{0, 0}, {complex(3, 2), 0}},
	}
	n, err := NewNetwork(50, []float64{1e9, 2e9}, s)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	got := n.At(1.5e9)
	want := complex(2, 1)
	if cmplx.Abs(got[1][0]-want) > 1e-12 {
		t.Errorf("interpolated S21 = %v, want %v", got[1][0], want)
	}
	// Exact at knots.
	if g := n.At(1e9); g[1][0] != s[0][1][0] {
		t.Errorf("knot value = %v, want %v", g[1][0], s[0][1][0])
	}
}

// TestNetworkAtBoundaries pins the documented edge behavior of At: linear
// extrapolation of the boundary segments outside the grid, exactness at both
// end knots, constant single-sample networks, a NaN-free result on a
// degenerate duplicate-frequency grid, and an explicit panic (not an index
// error) on an empty network.
func TestNetworkAtBoundaries(t *testing.T) {
	s := []Mat2{
		{{0, 0}, {complex(1, 0), 0}},
		{{0, 0}, {complex(3, 2), 0}},
	}
	n, err := NewNetwork(50, []float64{1e9, 2e9}, s)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	// Below the grid: the first segment's slope extends leftward.
	if got, want := n.At(0.5e9)[1][0], complex(0, -1); cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("extrapolated S21 below grid = %v, want %v", got, want)
	}
	// Above the grid: the last segment's slope extends rightward.
	if got, want := n.At(2.5e9)[1][0], complex(4, 3); cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("extrapolated S21 above grid = %v, want %v", got, want)
	}
	// Exact at both end knots (SearchFloat64s lands on the knot index).
	if got := n.At(1e9)[1][0]; got != s[0][1][0] {
		t.Errorf("low knot = %v, want %v", got, s[0][1][0])
	}
	if got := n.At(2e9)[1][0]; got != s[1][1][0] {
		t.Errorf("high knot = %v, want %v", got, s[1][1][0])
	}

	// Single-sample network is constant everywhere, including far outside.
	one, err := NewNetwork(50, []float64{1.5e9}, s[:1])
	if err != nil {
		t.Fatalf("NewNetwork single: %v", err)
	}
	for _, f := range []float64{0, 1e6, 1.5e9, 40e9} {
		if got := one.At(f); got != s[0] {
			t.Errorf("single-sample At(%g) = %v, want %v", f, got, s[0])
		}
	}

	// A duplicate-frequency grid (only constructible by bypassing
	// NewNetwork) must not divide by the zero segment slope.
	dup := &Network{Z0: 50, Freqs: []float64{1e9, 1e9}, S: s}
	got := dup.At(1e9)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if cmplx.IsNaN(got[r][c]) {
				t.Fatalf("duplicate-frequency grid produced NaN at [%d][%d]", r, c)
			}
		}
	}
	if got != s[0] {
		t.Errorf("duplicate-frequency At = %v, want left sample %v", got, s[0])
	}

	// Empty network: explicit panic with a diagnosable message.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("At on empty network did not panic")
		}
		if msg, ok := r.(string); !ok || msg != "twoport: Network.At on empty network" {
			t.Errorf("empty-network panic = %v, want explicit message", r)
		}
	}()
	(&Network{Z0: 50}).At(1e9)
}

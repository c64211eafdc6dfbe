package twoport

import (
	"fmt"
	"sort"
)

// Network is a frequency-sampled two-port described by S-parameters at each
// frequency, the interchange format between the synthetic VNA, the
// extraction code and the Touchstone reader/writer.
type Network struct {
	// Z0 is the reference impedance of the S-parameters.
	Z0 float64
	// Freqs holds the sample frequencies in Hz, strictly increasing.
	Freqs []float64
	// S holds one scattering matrix per entry of Freqs.
	S []Mat2
}

// NewNetwork validates and constructs a Network. Frequencies must be
// strictly increasing and match the number of S matrices.
func NewNetwork(z0 float64, freqs []float64, s []Mat2) (*Network, error) {
	if len(freqs) == 0 || len(freqs) != len(s) {
		return nil, fmt.Errorf("twoport: network needs equal, non-empty freqs and S (got %d/%d)", len(freqs), len(s))
	}
	for i := 1; i < len(freqs); i++ {
		if freqs[i] <= freqs[i-1] {
			return nil, fmt.Errorf("twoport: network frequencies must be strictly increasing (index %d)", i)
		}
	}
	if z0 <= 0 {
		return nil, fmt.Errorf("twoport: network Z0 must be positive, got %g", z0)
	}
	return &Network{
		Z0:    z0,
		Freqs: append([]float64(nil), freqs...),
		S:     append([]Mat2(nil), s...),
	}, nil
}

// Len returns the number of frequency points.
func (n *Network) Len() int { return len(n.Freqs) }

// At returns the S-matrix at frequency f, linearly interpolating between
// samples (and extrapolating the boundary segments outside the range): for
// f below Freqs[0] the first segment's slope extends leftward, above
// Freqs[k-1] the last segment's slope extends rightward. A single-sample
// network is constant over all frequencies. At panics on an empty network
// (NewNetwork never constructs one).
func (n *Network) At(f float64) Mat2 {
	k := len(n.Freqs)
	if k == 0 {
		panic("twoport: Network.At on empty network")
	}
	if k == 1 {
		return n.S[0]
	}
	i := sort.SearchFloat64s(n.Freqs, f)
	switch {
	case i <= 0:
		i = 1
	case i >= k:
		i = k - 1
	}
	f0, f1 := n.Freqs[i-1], n.Freqs[i]
	if f1 == f0 {
		// Degenerate segment (a grid that bypassed NewNetwork's strict
		// monotonicity check): return the left sample instead of dividing by
		// the zero slope and poisoning the result with NaNs.
		return n.S[i-1]
	}
	t := complex((f-f0)/(f1-f0), 0)
	var out Mat2
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			out[r][c] = n.S[i-1][r][c] + t*(n.S[i][r][c]-n.S[i-1][r][c])
		}
	}
	return out
}

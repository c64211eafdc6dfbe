package twoport

import "fmt"

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

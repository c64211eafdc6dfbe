package mathx

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-order radix-2 fast Fourier transform of x, whose
// length must be a power of two. The input is not modified.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("mathx: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		out[bits.Reverse64(uint64(i))>>shift] = x[i]
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Rect(1, step*float64(k))
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	return out, nil
}

// SpectrumBin describes one tone found in a real signal's spectrum.
type SpectrumBin struct {
	// Freq is the bin center frequency in Hz.
	Freq float64
	// Amplitude is the single-sided tone amplitude.
	Amplitude float64
}

// RealSpectrum returns the single-sided amplitude spectrum of the real
// signal x sampled at sampleRate. The length of x must be a power of two.
func RealSpectrum(x []float64, sampleRate float64) ([]SpectrumBin, error) {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	y, err := FFT(cx)
	if err != nil {
		return nil, err
	}
	n := len(x)
	out := make([]SpectrumBin, n/2)
	for k := 0; k < n/2; k++ {
		amp := 2 * cmplx.Abs(y[k]) / float64(n)
		if k == 0 {
			amp /= 2 // DC is not doubled
		}
		out[k] = SpectrumBin{
			Freq:      float64(k) * sampleRate / float64(n),
			Amplitude: amp,
		}
	}
	return out, nil
}

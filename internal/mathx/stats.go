package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RMS returns the root-mean-square of xs, or 0 for an empty slice.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics, or 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// RankPercentile returns the exact nearest-rank q-quantile (q in 0..1) of
// an already sorted sample set: the smallest sample with at least a
// fraction q of the set at or below it, or 0 for an empty set. Unlike
// Percentile it takes a fraction, neither copies nor sorts, and never
// interpolates, so it always returns one of the samples.
func RankPercentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// MinMax returns the minimum and maximum of xs. It panics on an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Linspace returns n evenly spaced values from start to stop inclusive.
// n must be at least 2.
func Linspace(start, stop float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace requires n >= 2")
	}
	out := make([]float64, n)
	step := (stop - start) / float64(n-1)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	out[n-1] = stop
	return out
}

// Logspace returns n logarithmically spaced values from start to stop
// inclusive (both must be positive). n must be at least 2.
func Logspace(start, stop float64, n int) []float64 {
	if start <= 0 || stop <= 0 {
		panic("mathx: Logspace requires positive endpoints")
	}
	ls := Linspace(math.Log10(start), math.Log10(stop), n)
	for i, v := range ls {
		ls[i] = math.Pow(10, v)
	}
	_ = ls[n-1]
	ls[n-1] = stop
	return ls
}

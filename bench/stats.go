package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// histogram records latencies with a relative resolution of 2^-subBits in
// memory that does not grow with the op count, so a faster engine (more ops
// in the same run) does not also read as a larger max_rss_mb.
type histogram struct {
	counts []uint32
	n      int
}

const subBits = 12

// bucketOf maps a latency in ns to its bucket: exact below 2^subBits ns,
// then subBits+1 significant bits.
func bucketOf(ns uint64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	e := bits.Len64(ns) - subBits - 1
	return (e+1)<<subBits | int(ns>>e&(1<<subBits-1))
}

// bucketValue returns the midpoint of a bucket in ns.
func bucketValue(b int) float64 {
	if b < 1<<subBits {
		return float64(b)
	}
	e := b>>subBits - 1
	lo := uint64(b&(1<<subBits-1)|1<<subBits) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

func (h *histogram) add(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	b := bucketOf(ns)
	if b >= len(h.counts) {
		grown := make([]uint32, b+1+b/2)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for b, c := range o.counts {
		if c == 0 {
			continue
		}
		if b >= len(h.counts) {
			grown := make([]uint32, len(o.counts))
			copy(grown, h.counts)
			h.counts = grown
		}
		h.counts[b] += c
	}
	h.n += o.n
}

// rank returns the nearest rank of quantile q in (0, 1] among n samples:
// the smallest r with r >= q*n, clamped to [1, n].
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantileMS returns the nearest-rank q-quantile in milliseconds (NaN when
// empty).
func (h *histogram) quantileMS(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	r, seen := rank(h.n, q), 0
	for b, c := range h.counts {
		seen += int(c)
		if seen >= r {
			return bucketValue(b) / 1e6
		}
	}
	return math.NaN()
}

// beyond counts the samples ranked above the nearest-rank q-quantile. The
// tail rule: tail_ms is quoted at a quantile that leaves at least ten.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// median returns the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), 0.5)-1]
}

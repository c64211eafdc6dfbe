package main

import "gnsslna/internal/core"

// Every input the benchmark feeds the program is derived from the run seed,
// a stream tag and an ordinal. Streams keep measured, warm-up and probe
// inputs disjoint, so no measured op is served by state a warm-up or an
// earlier op left behind; bench_test.go checks this.
type stream uint64

const (
	streamMeasured stream = iota + 1
	streamWarmup
	streamProbe
	streamSetup
	streamPool
	streamPick
)

// mix hashes (seed, stream, i, k) with the splitmix64 finalizer.
func mix(seed int64, s stream, i, k int) uint64 {
	h := uint64(seed)
	for _, v := range [...]uint64{uint64(s), uint64(i), uint64(k)} {
		h += 0x9e3779b97f4a7c15 ^ v*0xbf58476d1ce4e5b9
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// seedAt returns the i-th positive pipeline seed of a stream.
func seedAt(seed int64, s stream, i int) int64 {
	if v := int64(mix(seed, s, i, 0) >> 1); v != 0 {
		return v
	}
	return 1
}

var designLo, designHi = core.DesignBounds()

// designAt returns the i-th design of a stream, uniform inside
// core.DesignBounds.
func designAt(seed int64, s stream, i int) core.Design {
	var x [6]float64
	for k := range x {
		u := float64(mix(seed, s, i, k)>>11) / (1 << 53)
		x[k] = designLo[k] + u*(designHi[k]-designLo[k])
	}
	return core.DesignFromVector(x[:])
}

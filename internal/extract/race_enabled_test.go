//go:build race

package extract

// raceEnabled gates the allocation pins: the race detector instruments
// allocations, so the zero-alloc guarantees only hold for uninstrumented
// builds.
const raceEnabled = true

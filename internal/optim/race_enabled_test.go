//go:build race

package optim

// raceEnabled gates the allocation pins: the race detector instruments
// allocations, so allocation counts only hold for uninstrumented builds.
const raceEnabled = true

package rfpassive

import (
	"math"
	"sync"
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// sharedFixture returns a chain of the parts an amplifier builder shares
// (DC block, bias tee, R+L stabilizer) plus a per-design inductor, and the
// same chain with the shared parts wrapped.
func sharedFixture() (plain, shared Chain) {
	plain = Chain{
		DCBlock(100e-12),
		BiasFeed(RogersRO4350(), 1.7e-3, NewChipInductor(68e-9, Series), NewChipCapacitor(100e-12, Shunt), 10),
		StabilizerRL(68, 12e-9),
		NewChipInductor(5.6e-9, Series),
	}
	shared = Chain{NewShared(plain[0]), NewShared(plain[1]), NewShared(plain[2]), plain[3]}
	return plain, shared
}

// TestSharedConcurrentBands bands one chain holding Shared elements from
// four goroutines over overlapping grids, so the tables fill and are read
// concurrently, and demands every result equal (==) the serial evaluation
// of the unwrapped chain. Run it under -race.
func TestSharedConcurrentBands(t *testing.T) {
	plain, shared := sharedFixture()
	grid := mathx.Logspace(0.1e9, 8e9, 40)
	ref := CompileChain(plain)
	wantN := ref.NoisyBand(make([]noise.TwoPort, len(grid)), grid)
	wantA := ref.ABCDBand(make([]twoport.Mat2, len(grid)), grid)

	const workers, window = 4, 22
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			freqs := grid[lo : lo+window]
			cc := CompileChain(shared)
			for pass := 0; pass < 3; pass++ {
				gotN := cc.NoisyBand(make([]noise.TwoPort, window), freqs)
				gotA := cc.ABCDBand(make([]twoport.Mat2, window), freqs)
				for i := range freqs {
					if gotN[i] != wantN[lo+i] || gotA[i] != wantA[lo+i] {
						t.Errorf("worker at %d, pass %d: %g Hz differs from the serial result", lo, pass, freqs[i])
					}
				}
			}
		}(w * (len(grid) - window) / (workers - 1))
	}
	wg.Wait()
}

// TestSharedTableKeysAndBound checks the table's keying and bound: +0 Hz
// and -0 Hz get entries of their own, a grid longer than the bound stores
// exactly sharedBound entries and still evaluates every point like the
// unwrapped chain, and a generic inner element (a nested chain) stores
// nothing.
func TestSharedTableKeysAndBound(t *testing.T) {
	plain, shared := sharedFixture()
	tee := shared[1].(*Shared)
	cc, ref := CompileChain(shared), CompileChain(plain)
	entries := func(s *Shared) int {
		if p := s.vals.Load(); p != nil {
			return len(*p)
		}
		return 0
	}

	// The tee alone: behind the DC block, 0 Hz goes non-finite and the
	// rest of the chain takes the generic path.
	teeOnly := CompileChain(Chain{tee})
	for _, f := range []float64{0, math.Copysign(0, -1)} {
		teeOnly.ABCDAt(f)
	}
	if n := entries(tee); n != 2 {
		t.Errorf("+0 Hz and -0 Hz made %d table entries, want 2", n)
	}

	long := mathx.Logspace(50e6, 20e9, sharedBound+44)
	for pass := 0; pass < 2; pass++ {
		for _, f := range long {
			if got, want := cc.NoisyAt(f), ref.NoisyAt(f); got != want {
				t.Fatalf("pass %d at %g Hz: shared chain %v, want %v", pass, f, got, want)
			}
		}
	}
	if n := entries(tee); n != sharedBound {
		t.Errorf("table holds %d entries after a %d-point grid, want the bound %d", n, len(long)+2, sharedBound)
	}

	nested := NewShared(Chain{NewChipInductor(2.2e-9, Series), NewChipCapacitor(1e-12, Shunt)})
	CompileChain(Chain{nested}).NoisyAt(1.5e9)
	if n := entries(nested); n != 0 {
		t.Errorf("a nested chain stored %d entries, want none", n)
	}
}

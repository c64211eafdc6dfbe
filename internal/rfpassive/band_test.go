package rfpassive

import "testing"

// TestCompileReplacesSteps re-points one CompiledChain from a longer chain
// to a shorter one of different element kinds and demands it evaluate
// exactly (==) like a chain compiled fresh: Compile must drop every step it
// held before.
func TestCompileReplacesSteps(t *testing.T) {
	long := Chain{
		StabilizerRL(68, 12e-9),
		BiasFeed(FR4(), 1.1e-3, NewChipInductor(68e-9, Series), NewChipCapacitor(100e-12, Shunt), 10),
		NewChipInductor(2.2e-9, Series),
		NewChipCapacitor(0.5e-12, Shunt),
		NewChipResistor(12, Series),
	}
	short := Chain{
		NewChipCapacitor(100e-12, Series),
		NewChipInductor(5.6e-9, Shunt),
	}
	cc := CompileChain(long)
	cc.Compile(short)
	fresh := CompileChain(short)
	for _, f := range []float64{0.3e9, 1.2e9, 1.575e9, 4e9} {
		if got, want := cc.NoisyAt(f), fresh.NoisyAt(f); got != want {
			t.Errorf("at %g Hz: recompiled noisy two-port %v != fresh %v", f, got, want)
		}
		if got, want := cc.ABCDAt(f), fresh.ABCDAt(f); got != want {
			t.Errorf("at %g Hz: recompiled ABCD %v != fresh %v", f, got, want)
		}
	}
}

package rfpassive

import (
	"math"
	"testing"

	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

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
	var got, want noise.TwoPort
	var gotA, wantA twoport.Mat2
	for _, f := range []float64{0.3e9, 1.2e9, 1.575e9, 4e9} {
		cc.NoisyAt(&got, f)
		fresh.NoisyAt(&want, f)
		if got != want {
			t.Errorf("at %g Hz: recompiled noisy two-port %v != fresh %v", f, got, want)
		}
		cc.ABCDAt(&gotA, f)
		fresh.ABCDAt(&wantA, f)
		if gotA != wantA {
			t.Errorf("at %g Hz: recompiled ABCD %v != fresh %v", f, gotA, wantA)
		}
	}
}

// TestNonFiniteChainsMatchCheckedLoop pins NoisyAt and ABCDAt, which run the
// step loop unchecked and test the chain matrix once, to the checked loop
// bit for bit on chains that meet a non-finite factor or overflow: a series
// capacitor at 0 Hz, infinite and NaN inductances, a 0 F shunt capacitor,
// two 1e300 H inductors whose product overflows, each also with every step
// wrapped in a Shared, at 0, 1, 1.5e9 and 1e30 Hz, +Inf and NaN. The
// unchecked loop alone must differ from the checked one somewhere in the
// corpus, or the corpus would not exercise the fallback.
func TestNonFiniteChainsMatchCheckedLoop(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	bare := func(l float64) Inductor { return Inductor{L: l, Orient: Series, Temp: 300} }
	corpus := map[string]Chain{
		"series C": {
			NewChipInductor(2.2e-9, Series), NewChipCapacitor(1e-12, Series),
			NewChipCapacitor(0.5e-12, Shunt), NewChipResistor(12, Series),
		},
		"Inf L": {NewChipCapacitor(1e-12, Shunt), bare(inf), NewChipCapacitor(1e-12, Shunt)},
		"NaN L": {bare(nan), NewChipCapacitor(1e-12, Shunt), NewChipInductor(1e-9, Series)},
		"0 F shunt C": {
			NewChipInductor(5.6e-9, Series), NewChipCapacitor(0, Shunt),
			NewChipInductor(1e-9, Series), NewChipCapacitor(1e-12, Shunt),
		},
		"overflow": {
			bare(1e300), NewChipCapacitor(1e-12, Shunt), bare(1e300),
			NewChipCapacitor(1e-12, Shunt), Chain{NewChipResistor(5, Series)},
		},
	}
	for _, name := range []string{"series C", "Inf L", "NaN L", "0 F shunt C", "overflow"} {
		wrapped := make(Chain, len(corpus[name]))
		for i, e := range corpus[name] {
			wrapped[i] = NewShared(e)
		}
		corpus["shared "+name] = wrapped
	}
	var divergedN, divergedA int
	for name, ch := range corpus {
		cc := CompileChain(ch)
		for _, f := range []float64{0, 1, 1.5e9, 1e30, inf, nan} {
			var got, want, unchecked noise.TwoPort
			cc.NoisyAt(&got, f)
			cc.noisySteps(&want, f, true)
			cc.noisySteps(&unchecked, f, false)
			if !sameMatBits(got.A, want.A) || !sameMatBits(got.CA, want.CA) {
				t.Errorf("%s at %v Hz: NoisyAt %v, checked loop %v (bits differ)", name, f, got, want)
			}
			if !sameMatBits(unchecked.A, want.A) || !sameMatBits(unchecked.CA, want.CA) {
				divergedN++
			}

			var gotA, wantA, uncheckedA twoport.Mat2
			cc.ABCDAt(&gotA, f)
			cc.abcdSteps(&wantA, f, true)
			cc.abcdSteps(&uncheckedA, f, false)
			if !sameMatBits(gotA, wantA) {
				t.Errorf("%s at %v Hz: ABCDAt %v, checked loop %v (bits differ)", name, f, gotA, wantA)
			}
			if !sameMatBits(uncheckedA, wantA) {
				divergedA++
			}
		}
	}
	if divergedN == 0 || divergedA == 0 {
		t.Errorf("the unchecked loops matched the checked ones everywhere (noisy %d, ABCD %d divergent points): the corpus misses the fallback", divergedN, divergedA)
	}
}

// sameMatBits reports whether a and b hold the same float64 bit patterns.
func sameMatBits(a, b twoport.Mat2) bool {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			x, y := a[i][j], b[i][j]
			if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
				math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
				return false
			}
		}
	}
	return true
}

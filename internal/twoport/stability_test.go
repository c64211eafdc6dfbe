package twoport

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestStabilityOfPassiveNetworkIsUnconditional(t *testing.T) {
	// Any passive attenuator is unconditionally stable with K >= 1.
	for _, db := range []float64{1, 3, 10} {
		s := attenuatorS(db)
		if k := RolletK(s); k <= 1 {
			t.Errorf("%g dB attenuator K = %g, want > 1", db, k)
		}
		if MuSource(s) <= 1 {
			t.Errorf("%g dB attenuator mu = %g, want > 1", db, MuSource(s))
		}
	}
}

func TestMuAndKAgree(t *testing.T) {
	// mu > 1 iff (K > 1 and |Delta| < 1): check agreement on random samples.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		s := randomS(rng)
		kd := RolletK(s) > 1 && cmplx.Abs(s.Det()) < 1
		mu := MuSource(s) > 1
		if kd != mu {
			// The equivalence requires |S11|,|S22| < 1; skip pathological
			// actively-reflecting samples.
			if cmplx.Abs(s[0][0]) >= 1 || cmplx.Abs(s[1][1]) >= 1 {
				continue
			}
			t.Fatalf("trial %d: K-Delta says %v, mu says %v (K=%g mu=%g)",
				trial, kd, mu, RolletK(s), MuSource(s))
		}
	}
}

func TestStabilityCirclesSeparateRegions(t *testing.T) {
	// Terminations on the source stability circle must yield
	// |GammaOut| = 1.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		s := randomS(rng)
		sc := SourceStabilityCircle(s)
		if math.IsInf(sc.Radius, 1) {
			continue
		}
		for k := 0; k < 8; k++ {
			th := float64(k) / 8 * 2 * math.Pi
			gs := sc.Center + cmplx.Rect(sc.Radius, th)
			if cmplx.Abs(1-s[0][0]*gs) < 1e-6 {
				continue // pole of GammaOut
			}
			gout := GammaOut(s, gs)
			if math.Abs(cmplx.Abs(gout)-1) > 1e-6 {
				t.Fatalf("trial %d: |GammaOut| on source circle = %g, want 1",
					trial, cmplx.Abs(gout))
			}
		}
	}
}

func TestKOfLosslessLineIsUnity(t *testing.T) {
	// A lossless matched line has K exactly 1 (marginally stable, as any
	// lossless reciprocal network).
	line, err := ABCDToS(LineABCD(50, complex(0, 1.9), 0.4), 50)
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	if k := RolletK(line); math.Abs(k-1) > 1e-9 {
		t.Errorf("K of lossless line = %g, want 1", k)
	}
}

package match

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestSingleStubMatchesRandomLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		zl := complex(10+rng.Float64()*150, (rng.Float64()*2-1)*80)
		for _, open := range []bool{true, false} {
			m, err := DesignSingleStub(zl, 50, open)
			if err != nil {
				t.Fatalf("trial %d: DesignSingleStub(%v): %v", trial, zl, err)
			}
			zin := m.InputImpedance(zl, 50)
			if cmplx.Abs(zin-50) > 1e-6 {
				t.Fatalf("trial %d (open=%v): Zin = %v for load %v (d=%.3f, l=%.3f)",
					trial, open, zin, zl, m.DistRad, m.StubRad)
			}
			if m.DistRad < 0 || m.DistRad > math.Pi {
				t.Fatalf("distance %g outside [0, pi]", m.DistRad)
			}
			if m.StubRad < 0 || m.StubRad > math.Pi {
				t.Fatalf("stub %g outside [0, pi]", m.StubRad)
			}
		}
	}
}

func TestSingleStubMatchedLoadShortcut(t *testing.T) {
	m, err := DesignSingleStub(50, 50, true)
	if err != nil {
		t.Fatalf("DesignSingleStub: %v", err)
	}
	if m.DistRad != 0 {
		t.Errorf("matched load needs no transformation, got d = %g", m.DistRad)
	}
	if zin := m.InputImpedance(50, 50); cmplx.Abs(zin-50) > 1e-9 {
		t.Errorf("Zin = %v", zin)
	}
}

func TestSingleStubRejectsReactiveLoad(t *testing.T) {
	if _, err := DesignSingleStub(complex(0, 30), 50, true); err == nil {
		t.Error("purely reactive load accepted")
	}
}

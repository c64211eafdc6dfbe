package core

import (
	"math"
	"testing"

	"gnsslna/internal/mathx"
)

func TestSystemNoiseTempWithoutLNA(t *testing.T) {
	lb := LinkBudget{AntennaTempK: 100, CableLossDB: 3, ReceiverNFdB: 6}
	// Cable F = 2 (3 dB), receiver F ~ 3.981: chain F = 7.962,
	// Te = (7.962-1)*290 = 2019 K; Tsys = 2119 K.
	got := lb.SystemNoiseTemp(false, 0, 0)
	f := mathx.FromDB10(3.0) * mathx.FromDB10(6.0)
	want := 100 + (f-1)*290
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Tsys = %g, want %g", got, want)
	}
}

func TestLNADominatesSystemNoise(t *testing.T) {
	lb := DefaultLinkBudget()
	// A 0.5 dB / 17 dB preamp: system temperature near Tant + Te(LNA) +
	// small tail contribution.
	tsys := lb.SystemNoiseTemp(true, 0.5, 17)
	teLNA := mathx.NFToTemp(mathx.FromDB10(0.5))
	if tsys < lb.AntennaTempK+teLNA {
		t.Errorf("Tsys %g below floor %g", tsys, lb.AntennaTempK+teLNA)
	}
	if tsys > lb.AntennaTempK+teLNA+200 {
		t.Errorf("Tsys %g: tail not suppressed by the LNA gain", tsys)
	}
}

func TestCN0ImprovementShapes(t *testing.T) {
	lb := DefaultLinkBudget()
	imp := lb.CN0ImprovementDB(0.5, 17)
	// A good preamp in front of 4 dB cable + 8 dB receiver buys ~8-12 dB.
	if imp < 6 || imp > 15 {
		t.Errorf("C/N0 improvement = %g dB, want ~8-12", imp)
	}
	// More cable loss -> more improvement from the LNA.
	lbLong := lb
	lbLong.CableLossDB = 10
	if lbLong.CN0ImprovementDB(0.5, 17) <= imp {
		t.Error("longer cable should make the LNA more valuable")
	}
	// A better (lower NF) LNA improves C/N0.
	if lb.CN0ImprovementDB(0.3, 17) <= lb.CN0ImprovementDB(0.9, 17) {
		t.Error("lower LNA noise figure must increase the improvement")
	}
	// More gain helps until the tail is fully suppressed.
	if lb.CN0ImprovementDB(0.5, 25) < lb.CN0ImprovementDB(0.5, 12) {
		t.Error("more gain should not hurt")
	}
}

func TestCN0Absolute(t *testing.T) {
	lb := DefaultLinkBudget()
	// GPS L1 C/A at the antenna: about -128.5 dBm. With a good front end
	// C/N0 lands in the classic 40-50 dB-Hz window.
	cn0 := lb.CN0DBHz(-128.5, true, 0.5, 17)
	if cn0 < 38 || cn0 > 52 {
		t.Errorf("C/N0 = %g dB-Hz, want the 40-50 window", cn0)
	}
	// Without the LNA the receiver loses several dB.
	bare := lb.CN0DBHz(-128.5, false, 0, 0)
	if bare >= cn0 {
		t.Error("removing the preamplifier should cost C/N0")
	}
}

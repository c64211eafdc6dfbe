package mna

import (
	"math"
	"testing"

	"gnsslna/internal/device"
)

func TestTransientRCCharge(t *testing.T) {
	// Step into R-C: v(t) = V(1 - exp(-t/RC)).
	c := NewTransient()
	c.AddV("in", "0", StepV(5))
	c.AddR("in", "out", 1e3)
	c.AddC("out", "0", 1e-6) // tau = 1 ms
	wf, err := c.Run(5e-3, 5e-6, []string{"out"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := wf["out"]
	for i, tt := range out.Times {
		want := 5 * (1 - math.Exp(-tt/1e-3))
		if math.Abs(out.V[i]-want) > 0.02 {
			t.Fatalf("t=%g: v = %g, want %g", tt, out.V[i], want)
		}
	}
	if math.Abs(out.Final()-5) > 0.05 {
		t.Errorf("final = %g, want ~5", out.Final())
	}
}

// TestTransientRerunRepeatsFirstRun runs a 5 V step into 1 kOhm/1 uF, and
// into 1 kOhm/1 mH, twice on one circuit: the second run must start from
// the discharged capacitor and the currentless inductor again and repeat
// every sample of the first bit for bit.
func TestTransientRerunRepeatsFirstRun(t *testing.T) {
	rc := NewTransient()
	rc.AddV("in", "0", StepV(5))
	rc.AddR("in", "out", 1e3)
	rc.AddC("out", "0", 1e-6)
	rl := NewTransient()
	rl.AddV("in", "0", StepV(5))
	rl.AddR("in", "out", 1e3)
	rl.AddL("out", "0", 1e-3)
	for name, c := range map[string]*TransientCircuit{"RC": rc, "RL": rl} {
		var runs [2]*Waveform
		for i := range runs {
			wf, err := c.Run(50e-6, 5e-6, []string{"out"})
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i+1, err)
			}
			runs[i] = wf["out"]
		}
		if len(runs[0].V) != len(runs[1].V) {
			t.Fatalf("%s: %d samples, then %d", name, len(runs[0].V), len(runs[1].V))
		}
		for i := range runs[0].V {
			if math.Float64bits(runs[0].V[i]) != math.Float64bits(runs[1].V[i]) ||
				runs[0].Times[i] != runs[1].Times[i] {
				t.Errorf("%s: t=%g: v = %g on the first run, %g on the second", name, runs[0].Times[i], runs[0].V[i], runs[1].V[i])
			}
		}
	}
}

func TestTransientRLDecayToStatic(t *testing.T) {
	// Step into R-L-R divider: at t=0 the inductor blocks; at t=inf it is a
	// short, so v(out) -> V * R2/(R1+R2).
	c := NewTransient()
	c.AddV("in", "0", StepV(2))
	c.AddR("in", "mid", 100)
	c.AddL("mid", "out", 1e-3)
	c.AddR("out", "0", 100)
	wf, err := c.Run(1e-3, 1e-6, []string{"out"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := wf["out"].Final(); math.Abs(got-1) > 0.01 {
		t.Errorf("final divider voltage = %g, want 1", got)
	}
	// Early on the inductor current is near zero: out stays near 0.
	if v0 := wf["out"].V[1]; v0 > 0.1 {
		t.Errorf("inductor passed current instantly: v = %g", v0)
	}
}

func TestTransientLCEnergyConservation(t *testing.T) {
	// A lossless LC tank rung by a brief current pulse must oscillate at
	// f0 = 1/(2 pi sqrt(LC)) with (nearly) constant amplitude under the
	// trapezoidal rule (which is non-dissipative).
	l, cf := 1e-3, 1e-6 // f0 ~ 5.03 kHz
	c := NewTransient()
	pulse := func(t float64) float64 {
		if t < 20e-6 {
			return 1e-3
		}
		return 0
	}
	c.AddI("0", "tank", pulse)
	c.AddL("tank", "0", l)
	c.AddC("tank", "0", cf)
	wf, err := c.Run(2e-3, 0.5e-6, []string{"tank"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := wf["tank"].V
	// Compare peak amplitude in the first and last quarter: trapezoidal
	// integration must not damp the tank appreciably.
	quarter := len(v) / 4
	peak := func(seg []float64) float64 {
		m := 0.0
		for _, x := range seg {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
		return m
	}
	p1 := peak(v[quarter/2 : quarter])
	p2 := peak(v[len(v)-quarter:])
	if p1 <= 0 {
		t.Fatal("tank never rang")
	}
	if math.Abs(p2-p1)/p1 > 0.02 {
		t.Errorf("tank amplitude drifted: %g -> %g", p1, p2)
	}
	// Count zero crossings to estimate the frequency.
	crossings := 0
	for i := 1; i < len(v); i++ {
		if (v[i-1] < 0) != (v[i] < 0) {
			crossings++
		}
	}
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*cf))
	wantCrossings := 2 * f0 * 2e-3
	if math.Abs(float64(crossings)-wantCrossings) > 3 {
		t.Errorf("crossings = %d, want ~%.0f (f0 %.0f Hz)", crossings, wantCrossings, f0)
	}
}

func TestTransientBiasPowerUpMatchesDC(t *testing.T) {
	// Ramp the supply into the real bias network (divider, drain feed,
	// bypass caps, transistor): the settled transient state must agree
	// with the static DC operating point, and the gate must never
	// overshoot the divider target during the ramp.
	golden := device.Golden()
	build := func() (*TransientCircuit, *DCCircuit) {
		tr := NewTransient()
		tr.AddV("vcc", "0", RampV(5, 1e-4))
		tr.AddR("vcc", "gate", 47e3)
		tr.AddR("gate", "0", 5.1e3)
		tr.AddC("gate", "0", 100e-12)
		tr.AddR("vcc", "drain", 22)
		tr.AddC("drain", "0", 100e-12)
		tr.AddFET(golden.DC, "gate", "drain", "0")

		dc := NewDC()
		dc.AddV("vcc", "0", 5)
		dc.AddR("vcc", "gate", 47e3)
		dc.AddR("gate", "0", 5.1e3)
		dc.AddR("vcc", "drain", 22)
		dc.AddFET(golden.DC, "gate", "drain", "0")
		return tr, dc
	}
	tr, dc := build()
	wf, err := tr.Run(5e-4, 1e-6, []string{"gate", "drain"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	vdc, err := dc.OperatingPoint()
	if err != nil {
		t.Fatalf("OperatingPoint: %v", err)
	}
	if g := wf["gate"].Final(); math.Abs(g-vdc["gate"]) > 1e-3 {
		t.Errorf("settled gate %g vs DC %g", g, vdc["gate"])
	}
	if d := wf["drain"].Final(); math.Abs(d-vdc["drain"]) > 5e-3 {
		t.Errorf("settled drain %g vs DC %g", d, vdc["drain"])
	}
	// No gate overshoot beyond the static divider voltage.
	if mx := wf["gate"].Max(); mx > vdc["gate"]*1.02 {
		t.Errorf("gate overshoot: peak %g vs settled %g", mx, vdc["gate"])
	}
}

func TestTransientValidation(t *testing.T) {
	c := NewTransient()
	if _, err := c.Run(1e-3, 1e-6, nil); err == nil {
		t.Error("empty circuit accepted")
	}
	c.AddR("a", "0", 100)
	if _, err := c.Run(0, 1e-6, nil); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := c.Run(1e-3, 1e-6, []string{"nope"}); err == nil {
		t.Error("unknown watch node accepted")
	}
}

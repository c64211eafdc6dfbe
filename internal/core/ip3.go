package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

// IP3Report is the amplifier-level two-tone intercept analysis at one
// frequency.
type IP3Report struct {
	// Freq is the tone frequency in Hz.
	Freq float64
	// OIP3DBm is the output-referred intercept at the 50-ohm load.
	OIP3DBm float64
	// IIP3DBm is the input-referred intercept (OIP3 - transducer gain).
	IIP3DBm float64
	// GateTransferDB is the source-to-gate voltage transfer of the input
	// network in dB (drive scaling).
	GateTransferDB float64
	// OutputTransferDB is the drain-current-to-load power transfer relative
	// to driving 50 ohms directly, in dB.
	OutputTransferDB float64
}

// TwoToneOIP3 estimates the complete amplifier's third-order intercept at
// f0 with a quasi-static power-series analysis: the input network scales
// the drive reaching the gate, the transistor's gm power series generates
// the intermodulation currents, and the output network transforms the
// drain currents into load power. Compared with the device-level test this
// captures the band dependence the matching networks introduce. The
// approximation is memoryless within the tone spacing (valid for
// closely spaced tones) and uses the pad voltage as the gate drive.
func (a *Amplifier) TwoToneOIP3(f0 float64) (IP3Report, error) {
	gm1, _, gm3 := a.Dev.GmCoefficients(a.Bias)
	if gm1 <= 0 {
		return IP3Report{}, fmt.Errorf("core: no transconductance at this bias")
	}
	if gm3 == 0 {
		return IP3Report{}, fmt.Errorf("core: vanishing gm3 (exact sweet spot); intercept unbounded")
	}

	// Device terminal impedances at f0 with matched far terminations.
	sDev, err := a.Dev.SAt(a.Bias, f0, 50)
	if err != nil {
		return IP3Report{}, err
	}
	zInDev := twoport.ZFromGamma(sDev[0][0], 50)
	zOutDev := twoport.ZFromGamma(sDev[1][1], 50)

	// Input network: source EMF (50-ohm source) to gate-pad voltage.
	aIn := a.Input.ABCD(f0)
	denIn := aIn[0][0] + aIn[0][1]/zInDev + complex(50, 0)*(aIn[1][0]+aIn[1][1]/zInDev)
	if denIn == 0 {
		return IP3Report{}, fmt.Errorf("core: singular input transfer at %g Hz", f0)
	}
	hIn := 1 / denIn // Vgate per volt of source EMF

	// Output network: drain current to load power. The drain current
	// divides between the device output impedance and the network input;
	// the surviving network input voltage reaches the load through the
	// loaded voltage transfer.
	aOut := a.Output.ABCD(f0)
	zInNet := (aOut[0][0]*50 + aOut[0][1]) / (aOut[1][0]*50 + aOut[1][1])
	zNode := zOutDev * zInNet / (zOutDev + zInNet)
	hOut := 1 / (aOut[0][0] + aOut[0][1]/50) // Vload per volt at the network input
	// Transfer impedance: load voltage per ampere of drain current.
	zt := zNode * hOut

	// Tone bookkeeping: for source EMF amplitude e per tone, the gate sees
	// a = |hIn| e; fundamental drain current gm1*a; IM3 current gm3 a^3/8.
	// Intercept: gm1 a* = |gm3| a*^3/8 -> a*^2 = 8 gm1/|gm3|.
	aStar2 := 8 * gm1 / math.Abs(gm3)
	iFund := gm1 * math.Sqrt(aStar2)
	pLoad := iFund * iFund * sqAbsC(zt) / (2 * 50)
	oip3 := mathx.WattsToDBm(pLoad)

	// Transducer gain for input referral.
	tp, err := a.NoisyAt(f0)
	if err != nil {
		return IP3Report{}, err
	}
	sAmp, err := tp.S(50)
	if err != nil {
		return IP3Report{}, err
	}
	gt := mathx.DB10(twoport.TransducerGain(sAmp, 0, 0))

	return IP3Report{
		Freq:             f0,
		OIP3DBm:          oip3,
		IIP3DBm:          oip3 - gt,
		GateTransferDB:   mathx.DB20(cmplx.Abs(hIn)) + mathx.DB20(2), // vs. matched source reference
		OutputTransferDB: mathx.DB10(sqAbsC(zt) / (50 * 50)),
	}, nil
}

func sqAbsC(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

package device

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
)

// biasOn is the nominal operating point used across the device tests.
var biasOn = Bias{Vgs: 0.56, Vds: 3.0}

func TestGoldenDeviceSanity(t *testing.T) {
	d := Golden()
	ids := d.Ids(biasOn)
	if ids < 0.02 || ids > 0.2 {
		t.Errorf("Ids at nominal bias = %g A, want tens of mA", ids)
	}
	ss := d.SmallSignalAt(biasOn)
	if ss.Gm < 0.05 || ss.Gm > 1 {
		t.Errorf("gm = %g S, want O(0.1)", ss.Gm)
	}
	ft := d.FT(biasOn)
	if ft < 5e9 || ft > 100e9 {
		t.Errorf("fT = %g Hz, want tens of GHz", ft)
	}
}

func TestGoldenSParamsPlausible(t *testing.T) {
	d := Golden()
	for _, f := range []float64{1.1e9, 1.4e9, 1.7e9} {
		s, err := d.SAt(biasOn, f, 50)
		if err != nil {
			t.Fatalf("SAt(%g): %v", f, err)
		}
		// |S21| of a good L-band pHEMT: roughly 12-24 dB.
		g := cmplx.Abs(s[1][0])
		if g < 2 || g > 16 {
			t.Errorf("f=%g: |S21| = %g, want 2-16", f, g)
		}
		// Input reflection below unity but substantial (capacitive input).
		if m := cmplx.Abs(s[0][0]); m >= 1 || m < 0.2 {
			t.Errorf("f=%g: |S11| = %g, want in (0.2, 1)", f, m)
		}
		// Reverse isolation much smaller than forward gain.
		if iso := cmplx.Abs(s[0][1]); iso > 0.3 {
			t.Errorf("f=%g: |S12| = %g, want small", f, iso)
		}
	}
}

func TestGoldenNoiseParamsPlausible(t *testing.T) {
	d := Golden()
	p, err := d.NoiseParamsAt(biasOn, 1.575e9, 50)
	if err != nil {
		t.Fatalf("NoiseParamsAt: %v", err)
	}
	nfMin := p.FminDB()
	// L-band E-pHEMT: Fmin between ~0.2 and ~1.2 dB.
	if nfMin < 0.1 || nfMin > 1.5 {
		t.Errorf("Fmin = %g dB, want 0.1-1.5", nfMin)
	}
	if p.Rn <= 0 || p.Rn > 50 {
		t.Errorf("Rn = %g ohm, want small positive", p.Rn)
	}
	if g := cmplx.Abs(p.GammaOpt); g >= 1 {
		t.Errorf("|GammaOpt| = %g, want < 1", g)
	}
}

func TestNoiseFigureRisesWithFrequency(t *testing.T) {
	d := Golden()
	var prev float64
	for i, f := range []float64{0.8e9, 1.2e9, 1.6e9, 2.4e9, 4e9} {
		p, err := d.NoiseParamsAt(biasOn, f, 50)
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if i > 0 && p.Fmin < prev {
			t.Errorf("Fmin not increasing with f: %g at %g Hz", p.Fmin, f)
		}
		prev = p.Fmin
	}
}

func TestNoiseGainTradeoffWithBias(t *testing.T) {
	// Higher drain current: more gm (gain) but hotter drain (noise). This
	// trade-off is what the multi-objective optimization balances.
	d := Golden()
	f := 1.575e9
	// Both biases below the Angelov gm peak (Vpk) so gm grows with Ids.
	lowI := Bias{Vgs: 0.30, Vds: 3}
	highI := Bias{Vgs: 0.46, Vds: 3}
	if d.Ids(lowI) >= d.Ids(highI) {
		t.Fatal("bias fixtures wrong: expected Ids(low) < Ids(high)")
	}
	gmLow := d.SmallSignalAt(lowI).Gm
	gmHigh := d.SmallSignalAt(highI).Gm
	if gmHigh <= gmLow {
		t.Errorf("gm should grow with Ids: %g -> %g", gmLow, gmHigh)
	}
	pLow, err := d.NoiseParamsAt(lowI, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	pHigh, err := d.NoiseParamsAt(highI, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if pHigh.Fmin <= pLow.Fmin {
		t.Errorf("Fmin should grow with Ids: %g -> %g (linear)", pLow.Fmin, pHigh.Fmin)
	}
}

// TestIntrinsicNoisyYMatchesIntrinsicY pins the admittance IntrinsicNoisyY
// assembles from its own terms to IntrinsicY bit for bit, over the golden
// device's bias grid and frequencies that include 0, +Inf and NaN, and
// over small-signal models with zero, huge and non-finite elements.
func TestIntrinsicNoisyYMatchesIntrinsicY(t *testing.T) {
	d := Golden()
	models := []SmallSignal{{}, {Gm: 1e300, Cgs: 1e300, Ri: 1e300, Tau: 1e-300}}
	for _, vgs := range []float64{0.3, 0.45, 0.56, 0.7} {
		for _, vds := range []float64{0.5, 3} {
			models = append(models, d.SmallSignalAt(Bias{Vgs: vgs, Vds: vds}))
		}
	}
	for _, edit := range []func(*SmallSignal){
		func(ss *SmallSignal) { ss.Cgs = math.Inf(1) },
		func(ss *SmallSignal) { ss.Tau = math.NaN() },
		func(ss *SmallSignal) { ss.Ri = -math.Inf(1) },
	} {
		ss := d.SmallSignalAt(biasOn)
		edit(&ss)
		models = append(models, ss)
	}
	freqs := []float64{0, math.Copysign(0, -1), 1, 1.2e9, 1.575e9, 40e9, 1e30, math.Inf(1), math.NaN()}
	for _, ss := range models {
		for _, f := range freqs {
			want := IntrinsicY(ss, f)
			got, _ := IntrinsicNoisyY(ss, f, d.Noise.Tg, 1500)
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					if !sameBits(got[i][j], want[i][j]) {
						t.Errorf("%+v at %v Hz: Y%d%d %v, IntrinsicY %v", ss, f, i+1, j+1, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

func TestPospieszalskiAgainstClosedForm(t *testing.T) {
	// For the bare intrinsic device with Tau = 0 and Cgd = 0, Pospieszalski
	// gives closed-form noise parameters; the correlation-matrix pipeline
	// must reproduce them. (Pospieszalski 1989, eqs. for Tmin, Rn, Zopt.)
	ss := SmallSignal{
		Gm:  0.25,
		Gds: 0.004,
		Cgs: 1.4e-12,
		Cgd: 0,
		Cds: 0,
		Ri:  1.5,
		Tau: 0,
	}
	tg, td := 300.0, 1200.0
	f := 2e9
	y, cy := IntrinsicNoisyY(ss, f, tg, td)
	tpNoisy, err := noise.FromY(y, cy)
	if err != nil {
		t.Fatalf("FromY: %v", err)
	}
	p, err := tpNoisy.NoiseParams(50)
	if err != nil {
		t.Fatalf("NoiseParams: %v", err)
	}
	// Closed form: with fT = gm/(2 pi Cgs),
	// Tmin = 2 (f/fT) sqrt(Ri gds Tg Td + (f/fT)^2 Ri^2 gds^2 Td^2)
	//        + 2 (f/fT)^2 Ri gds Td.
	fT := ss.Gm / (2 * math.Pi * ss.Cgs)
	r := f / fT
	tmin := 2*r*math.Sqrt(ss.Ri*ss.Gds*tg*td+r*r*ss.Ri*ss.Ri*ss.Gds*ss.Gds*td*td) +
		2*r*r*ss.Ri*ss.Gds*td
	wantFmin := 1 + tmin/mathx.T0
	if math.Abs(p.Fmin-wantFmin) > 1e-6*wantFmin {
		t.Errorf("Fmin = %.8f, closed form %.8f", p.Fmin, wantFmin)
	}
	// Rn closed form: Rn = (Tg/T0) Ri + (Td/T0) gds / gm^2 * |1 + j 2 pi f Cgs Ri|^2
	w := 2 * math.Pi * f
	mag := 1 + w*w*ss.Cgs*ss.Cgs*ss.Ri*ss.Ri
	wantRn := tg/mathx.T0*ss.Ri + td/mathx.T0*ss.Gds/(ss.Gm*ss.Gm)*mag
	if math.Abs(p.Rn-wantRn) > 1e-6*wantRn {
		t.Errorf("Rn = %.8f, closed form %.8f", p.Rn, wantRn)
	}
}

func TestFukuiCrossCheck(t *testing.T) {
	// Fukui's empirical formula and the correlation-matrix Fmin must agree
	// within a factor consistent with kf calibration (same order, same
	// frequency trend).
	d := Golden()
	f := 1.575e9
	p, err := d.NoiseParamsAt(biasOn, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	fukui := d.FukuiFmin(biasOn, f, 2.5)
	// Both excess factors within 3x of each other.
	exCorr := p.Fmin - 1
	exFukui := fukui - 1
	if exCorr <= 0 || exFukui <= 0 {
		t.Fatalf("non-positive excess noise: %g %g", exCorr, exFukui)
	}
	ratio := exCorr / exFukui
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("Fukui and correlation Fmin disagree badly: excess %g vs %g", exCorr, exFukui)
	}
}

func TestEmbeddingAddsParasiticEffects(t *testing.T) {
	// Removing the parasitics must raise gain and lower noise.
	d := Golden()
	f := 1.575e9
	bare := *d
	bare.Ext = Extrinsics{}
	sFull, err := d.SAt(biasOn, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	sBare, err := bare.SAt(biasOn, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(sBare[1][0]) <= cmplx.Abs(sFull[1][0]) {
		t.Errorf("parasitics should reduce |S21|: bare %g vs full %g",
			cmplx.Abs(sBare[1][0]), cmplx.Abs(sFull[1][0]))
	}
	pFull, err := d.NoiseParamsAt(biasOn, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	pBare, err := bare.NoiseParamsAt(biasOn, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if pBare.Fmin >= pFull.Fmin {
		t.Errorf("parasitics should raise Fmin: bare %g vs full %g", pBare.Fmin, pFull.Fmin)
	}
}

func TestCapModelTransitions(t *testing.T) {
	c := Golden().Caps
	if c.Cgs(-1) >= c.Cgs(0.8) {
		t.Error("Cgs must grow from pinch-off to open channel")
	}
	if got := c.Cgs(-10); math.Abs(got-c.CgsPinch) > 0.02e-12 {
		t.Errorf("deep pinch Cgs = %g, want ~CgsPinch", got)
	}
	if c.Cgd(0) <= c.Cgd(3) {
		t.Error("Cgd must fall with Vds")
	}
	// Degenerate scales fall back to constants.
	flat := CapModel{Cgs0: 1e-12, Cgd0: 2e-13}
	if flat.Cgs(0.3) != 1e-12 || flat.Cgd(2) != 2e-13 {
		t.Error("zero-scale cap model must be constant")
	}
}

func TestSmallSignalFT(t *testing.T) {
	ss := SmallSignal{Gm: 0.3, Cgs: 1.5e-12, Cgd: 0.2e-12}
	want := 0.3 / (2 * math.Pi * 1.7e-12)
	if got := ss.FT(); math.Abs(got-want) > 1e-3*want {
		t.Errorf("FT = %g, want %g", got, want)
	}
	if (SmallSignal{}).FT() != 0 {
		t.Error("FT of empty model must be 0")
	}
}

func TestReciprocityOfPassiveModeDevice(t *testing.T) {
	// With gm = 0 (cold FET) the device is passive and reciprocal:
	// S12 == S21.
	d := Golden()
	cold := Bias{Vgs: -0.8, Vds: 0}
	s, err := d.SAt(cold, 1e9, 50)
	if err != nil {
		t.Fatalf("cold SAt: %v", err)
	}
	if cmplx.Abs(s[0][1]-s[1][0]) > 1e-9 {
		t.Errorf("cold FET not reciprocal: S12=%v S21=%v", s[0][1], s[1][0])
	}
	// And passive: no power gain anywhere.
	if cmplx.Abs(s[1][0]) >= 1 {
		t.Errorf("cold FET |S21| = %g, want < 1", cmplx.Abs(s[1][0]))
	}
}

func TestGoldenVariantDiffersButPlausible(t *testing.T) {
	g := Golden()
	v, err := GoldenVariant(7)
	if err != nil {
		t.Fatalf("GoldenVariant: %v", err)
	}
	if v.Name == g.Name {
		t.Error("variant not renamed")
	}
	// Parameters moved but stayed within +/-15%.
	if v.Ri == g.Ri {
		t.Error("variant identical to golden")
	}
	if v.Ri < 0.85*g.Ri-1e-12 || v.Ri > 1.15*g.Ri+1e-12 {
		t.Errorf("variant Ri %g outside +/-15%% of %g", v.Ri, g.Ri)
	}
	// Deterministic per seed.
	v2, err := GoldenVariant(7)
	if err != nil {
		t.Fatalf("GoldenVariant: %v", err)
	}
	if v2.Ri != v.Ri || v2.Caps.Cgs0 != v.Caps.Cgs0 {
		t.Error("variant not deterministic")
	}
	// Still a plausible transistor.
	s, err := v.SAt(biasOn, 1.4e9, 50)
	if err != nil {
		t.Fatalf("variant SAt: %v", err)
	}
	if g21 := real(s[1][0])*real(s[1][0]) + imag(s[1][0])*imag(s[1][0]); g21 < 1 {
		t.Errorf("variant |S21|^2 = %g, no longer an amplifier", g21)
	}
}

// rejectingDC is a stub DC model whose SetParams always fails, exercising
// the variant error path that used to panic.
type rejectingDC struct{ Angelov }

var errRejected = errors.New("rejected")

func (r *rejectingDC) SetParams([]float64) error { return errRejected }

func TestVariantOfReturnsSetParamsError(t *testing.T) {
	d := Golden()
	d.DC = &rejectingDC{}
	v, err := variantOf(d, 3)
	if !errors.Is(err, errRejected) {
		t.Fatalf("variantOf error = %v, want wrapped errRejected", err)
	}
	if v != nil {
		t.Fatalf("variantOf returned a device alongside the error: %+v", v)
	}
}

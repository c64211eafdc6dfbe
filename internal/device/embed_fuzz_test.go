package device

import (
	"math"
	"testing"
)

// FuzzEmbedABCDMatchesEmbed fences the A-only embedding the stability scan
// uses against the noisy one: for raw float64 bit patterns of the
// small-signal elements, the extrinsics and the frequency, EmbedABCD and
// Embed(...).A must both fail or return the same bits. The seed corpus
// starts from the golden device at the nominal bias and covers Gm 0, Cgd 0,
// Tau 0, Rs = Ls = 0, an intrinsic and an embedded Y21 of 0, subnormal and
// huge capacitances, NaN, +-Inf and f 0.
func FuzzEmbedABCDMatchesEmbed(f *testing.F) {
	d := Golden()
	nominal := func() (SmallSignal, Extrinsics, float64) { return d.SmallSignalAt(biasOn), d.Ext, 1.575e9 }
	nan, inf := math.NaN(), math.Inf(1)
	seeds := []func(ss *SmallSignal, ex *Extrinsics, fr *float64){
		func(*SmallSignal, *Extrinsics, *float64) {},
		func(ss *SmallSignal, _ *Extrinsics, _ *float64) { ss.Gm = 0 },
		func(ss *SmallSignal, _ *Extrinsics, _ *float64) { ss.Cgd = 0 },
		func(ss *SmallSignal, _ *Extrinsics, _ *float64) { ss.Tau = 0 },
		func(_ *SmallSignal, ex *Extrinsics, _ *float64) { ex.Rs, ex.Ls = 0, 0 },
		// Intrinsic Y21 = 0; the source lead still couples the ports.
		func(ss *SmallSignal, _ *Extrinsics, _ *float64) { ss.Gm, ss.Cgd = 0, 0 },
		// Embedded Y21 = 0: no chain matrix, both must fail.
		func(ss *SmallSignal, ex *Extrinsics, _ *float64) { ss.Gm, ss.Cgd, ex.Rs, ex.Ls = 0, 0, 0, 0 },
		func(ss *SmallSignal, ex *Extrinsics, _ *float64) {
			ss.Cgs, ss.Cgd, ss.Cds = 5e-324, 5e-324, 2.5e-310
			ex.Cpg, ex.Cpd = 5e-324, 1e-310
		},
		func(ss *SmallSignal, ex *Extrinsics, _ *float64) {
			ss.Cgs, ss.Cgd, ss.Cds = 1e300, 1e300, math.MaxFloat64
			ex.Cpg, ex.Cpd = 1e300, 1e300
		},
		func(ss *SmallSignal, _ *Extrinsics, _ *float64) { ss.Gm = nan },
		func(_ *SmallSignal, ex *Extrinsics, _ *float64) { ex.Lg = nan },
		func(ss *SmallSignal, _ *Extrinsics, _ *float64) { ss.Cgs = inf },
		func(ss *SmallSignal, _ *Extrinsics, _ *float64) { ss.Ri = -inf },
		func(_ *SmallSignal, _ *Extrinsics, fr *float64) { *fr = inf },
		func(_ *SmallSignal, _ *Extrinsics, fr *float64) { *fr = 0 },
		func(_ *SmallSignal, ex *Extrinsics, fr *float64) { *fr, ex.Cpg, ex.Cpd = 0, 0, 0 },
		func(ss *SmallSignal, ex *Extrinsics, fr *float64) { *ss, *ex, *fr = SmallSignal{}, Extrinsics{}, 0 },
	}
	for _, edit := range seeds {
		ss, ex, fr := nominal()
		edit(&ss, &ex, &fr)
		b := math.Float64bits
		f.Add(b(ss.Gm), b(ss.Gds), b(ss.Cgs), b(ss.Cgd), b(ss.Cds), b(ss.Ri), b(ss.Tau),
			b(ex.Rg), b(ex.Rs), b(ex.Rd), b(ex.Lg), b(ex.Ls), b(ex.Ld), b(ex.Cpg), b(ex.Cpd), b(fr))
	}
	f.Fuzz(func(t *testing.T, gm, gds, cgs, cgd, cds, ri, tau, rg, rs, rd, lg, ls, ld, cpg, cpd, freq uint64) {
		v := math.Float64frombits
		ss := SmallSignal{Gm: v(gm), Gds: v(gds), Cgs: v(cgs), Cgd: v(cgd), Cds: v(cds), Ri: v(ri), Tau: v(tau)}
		ex := Extrinsics{Rg: v(rg), Rs: v(rs), Rd: v(rd), Lg: v(lg), Ls: v(ls), Ld: v(ld), Cpg: v(cpg), Cpd: v(cpd)}
		fr := v(freq)
		a, errA := EmbedABCD(IntrinsicY(ss, fr), ex, fr)
		y, cy := IntrinsicNoisyY(ss, fr, d.Noise.Tg, 1500)
		tp, err := Embed(y, cy, ex, fr, d.Noise.Ta)
		if (errA == nil) != (err == nil) {
			t.Fatalf("%+v %+v at %v Hz: EmbedABCD error %v, Embed error %v", ss, ex, fr, errA, err)
		}
		if errA != nil {
			return
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if !sameBits(a[i][j], tp.A[i][j]) {
					t.Fatalf("%+v %+v at %v Hz: A%d%d EmbedABCD %v, Embed %v", ss, ex, fr, i+1, j+1, a[i][j], tp.A[i][j])
				}
			}
		}
	})
}

package device

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/twoport"
)

// The embedding's drift and accuracy reference. embedChainRef,
// embedABCDChainRef and sFromSmallSignalRef are the bodies Embed, EmbedABCD
// and SFromSmallSignal had before the embedding became one immittance pass,
// kept verbatim: Embed and EmbedABCD went through the chain representation
// (seven representation changes and seven noise congruences), and
// SFromSmallSignal already ran the one pass. The oracle evaluates the exact
// embedding of the same float64 inputs in 256-bit arithmetic.

func embedChainRef(yInt, cyInt twoport.Mat2, ex Extrinsics, f, ta float64) (noise.TwoPort, error) {
	w := 2 * math.Pi * f
	tp, err := noise.FromY(yInt, cyInt)
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed intrinsic: %w", err)
	}
	z, cz, err := tp.ToZ()
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed to Z: %w", err)
	}
	zg := complex(ex.Rg, w*ex.Lg)
	zs := complex(ex.Rs, w*ex.Ls)
	zd := complex(ex.Rd, w*ex.Ld)
	tn := ta / mathx.T0
	// Common-lead impedance adds to every entry of Z (series feedback).
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] += zs
			cz[i][j] += complex(ex.Rs*tn, 0)
		}
	}
	z[0][0] += zg
	cz[0][0] += complex(ex.Rg*tn, 0)
	z[1][1] += zd
	cz[1][1] += complex(ex.Rd*tn, 0)
	tp, err = noise.FromZ(z, cz)
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed from Z: %w", err)
	}
	// Pad capacitances shunt the external ports (lossless, noiseless).
	y, cy, err := tp.ToY()
	if err != nil {
		return noise.TwoPort{}, fmt.Errorf("device: embed pads: %w", err)
	}
	y[0][0] += complex(0, w*ex.Cpg)
	y[1][1] += complex(0, w*ex.Cpd)
	return noise.FromY(y, cy)
}

func embedABCDChainRef(yInt twoport.Mat2, ex Extrinsics, f float64) (twoport.Mat2, error) {
	w := 2 * math.Pi * f
	// FromY: A = YToABCD(yInt).
	a, err := twoport.YToABCD(yInt)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed intrinsic: %w", err)
	}
	// ToZ round-trips through Y: y = ABCDToY(A), z = YToZ(y).
	y, err := twoport.ABCDToY(a)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed to Z: %w", err)
	}
	z, err := twoport.YToZ(y)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed to Z: %w", err)
	}
	zg := complex(ex.Rg, w*ex.Lg)
	zs := complex(ex.Rs, w*ex.Ls)
	zd := complex(ex.Rd, w*ex.Ld)
	// Common-lead impedance adds to every entry of Z (series feedback).
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] += zs
		}
	}
	z[0][0] += zg
	z[1][1] += zd
	// FromZ: y = ZToY(z), A = YToABCD(y).
	y, err = twoport.ZToY(z)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed from Z: %w", err)
	}
	a, err = twoport.YToABCD(y)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed from Z: %w", err)
	}
	// ToY then pad susceptances, then the final FromY.
	y, err = twoport.ABCDToY(a)
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed pads: %w", err)
	}
	y[0][0] += complex(0, w*ex.Cpg)
	y[1][1] += complex(0, w*ex.Cpd)
	return twoport.YToABCD(y)
}

func sFromSmallSignalRef(ss SmallSignal, ex Extrinsics, f, z0 float64) (twoport.Mat2, error) {
	w := 2 * math.Pi * f
	z, err := IntrinsicY(ss, f).Inv()
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed to Z: %w", err)
	}
	zg := complex(ex.Rg, w*ex.Lg)
	zs := complex(ex.Rs, w*ex.Ls)
	zd := complex(ex.Rd, w*ex.Ld)
	// Common-lead impedance adds to every entry of Z (series feedback).
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] += zs
		}
	}
	z[0][0] += zg
	z[1][1] += zd
	y, err := z.Inv()
	if err != nil {
		return twoport.Mat2{}, fmt.Errorf("device: embed pads: %w", err)
	}
	// Pad capacitances shunt the external ports (lossless).
	y[0][0] += complex(0, w*ex.Cpg)
	y[1][1] += complex(0, w*ex.Cpd)
	return twoport.YToS(y, z0)
}

// oraclePrec is the oracle's mantissa length in bits.
const oraclePrec = 256

// bigC is a complex number with big.Float parts.
type bigC struct{ re, im *big.Float }

func newBig() *big.Float { return new(big.Float).SetPrec(oraclePrec) }

func bigOf(v complex128) bigC {
	return bigC{newBig().SetFloat64(real(v)), newBig().SetFloat64(imag(v))}
}

func (a bigC) add(b bigC) bigC {
	return bigC{newBig().Add(a.re, b.re), newBig().Add(a.im, b.im)}
}

func (a bigC) sub(b bigC) bigC {
	return bigC{newBig().Sub(a.re, b.re), newBig().Sub(a.im, b.im)}
}

func (a bigC) mul(b bigC) bigC {
	rr, ii := newBig().Mul(a.re, b.re), newBig().Mul(a.im, b.im)
	ri, ir := newBig().Mul(a.re, b.im), newBig().Mul(a.im, b.re)
	return bigC{rr.Sub(rr, ii), ri.Add(ri, ir)}
}

func (a bigC) div(b bigC) bigC {
	den := b.abs2()
	n := a.mul(b.conj())
	return bigC{n.re.Quo(n.re, den), n.im.Quo(n.im, den)}
}

func (a bigC) neg() bigC  { return bigC{newBig().Neg(a.re), newBig().Neg(a.im)} }
func (a bigC) conj() bigC { return bigC{a.re, newBig().Neg(a.im)} }

func (a bigC) abs2() *big.Float {
	s := newBig().Mul(a.re, a.re)
	return s.Add(s, newBig().Mul(a.im, a.im))
}

type bigM [2][2]bigC

func bigMOf(m twoport.Mat2) bigM {
	var b bigM
	for i := range m {
		for j := range m[i] {
			b[i][j] = bigOf(m[i][j])
		}
	}
	return b
}

func (m bigM) mul(n bigM) bigM {
	var p bigM
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			p[i][j] = m[i][0].mul(n[0][j]).add(m[i][1].mul(n[1][j]))
		}
	}
	return p
}

func (m bigM) conjT() bigM {
	return bigM{
		{m[0][0].conj(), m[1][0].conj()},
		{m[0][1].conj(), m[1][1].conj()},
	}
}

func (m bigM) det() bigC { return m[0][0].mul(m[1][1]).sub(m[0][1].mul(m[1][0])) }

func (m bigM) inv() bigM {
	d := m.det()
	return bigM{
		{m[1][1].div(d), m[0][1].neg().div(d)},
		{m[1][0].neg().div(d), m[0][0].div(d)},
	}
}

// oracleEmbedding evaluates the exact embedding of its float64 inputs: the
// intrinsic Y and CY, the series gate, source and drain impedances, the
// normalized thermal noise of Rg, Rs and Rd, and the pad admittances. It
// returns the chain matrix A and its correlation matrix CA.
func oracleEmbedding(yInt, cyInt twoport.Mat2, zg, zs, zd complex128, ng, ns, nd float64, yp1, yp2 complex128) (a, ca bigM) {
	zInt := bigMOf(yInt).inv()
	bzs := bigOf(zs)
	var z bigM
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z[i][j] = zInt[i][j].add(bzs)
		}
	}
	z[0][0] = z[0][0].add(bigOf(zg))
	z[1][1] = z[1][1].add(bigOf(zd))
	y := z.inv()
	cz := zInt.mul(bigMOf(cyInt)).mul(zInt.conjT())
	bns := bigOf(complex(ns, 0))
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			cz[i][j] = cz[i][j].add(bns)
		}
	}
	cz[0][0] = cz[0][0].add(bigOf(complex(ng, 0)))
	cz[1][1] = cz[1][1].add(bigOf(complex(nd, 0)))
	cy := y.mul(cz).mul(y.conjT())
	y[0][0] = y[0][0].add(bigOf(yp1))
	y[1][1] = y[1][1].add(bigOf(yp2))
	y21 := y[1][0]
	a = bigM{
		{y[1][1].neg().div(y21), bigOf(-1).div(y21)},
		{y.det().neg().div(y21), y[0][0].neg().div(y21)},
	}
	t := bigM{{bigOf(0), a[0][1]}, {bigOf(1), a[1][1]}}
	return a, t.mul(cy).mul(t.conjT())
}

// normRelErr returns ||got - ref||_F / ||ref||_F.
func normRelErr(got twoport.Mat2, ref bigM) float64 {
	num, den := newBig(), newBig()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			num.Add(num, bigOf(got[i][j]).sub(ref[i][j]).abs2())
			den.Add(den, ref[i][j].abs2())
		}
	}
	q, _ := num.Quo(num, den).Float64()
	return math.Sqrt(q)
}

// relDiff returns ||a - b||_F / ||b||_F in float64.
func relDiff(a, b twoport.Mat2) float64 {
	var num, den float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			num += sqAbs(a[i][j] - b[i][j])
			den += sqAbs(b[i][j])
		}
	}
	return math.Sqrt(num / den)
}

// oracleDevices is the accuracy corpus's device set: the golden device and
// the golden device with each DC model class at its default parameters.
func oracleDevices() []*PHEMT {
	devs := []*PHEMT{Golden()}
	for _, m := range AllModels() {
		d := Golden()
		d.DC = m
		d.Name = "golden-" + m.Name()
		devs = append(devs, d)
	}
	return devs
}

// oracleFreqs spans the design's in-band grid (11 points over 1.15-1.65
// GHz) and its out-of-band stability grid (9 log-spaced points over
// 0.2-6 GHz).
func oracleFreqs() []float64 {
	return append(mathx.Linspace(1.15e9, 1.65e9, 11), mathx.Logspace(0.2e9, 6e9, 9)...)
}

// errStats accumulates the normwise errors of one output.
type errStats struct {
	max, sum float64
	n        int
	at       string
}

func (s *errStats) add(e float64, at string) {
	if e > s.max {
		s.max, s.at = e, at
	}
	s.sum += e
	s.n++
}

func (s *errStats) mean() float64 { return s.sum / float64(s.n) }

// TestEmbedAccuracyAgainstOracle compares Embed and the chain-representation
// reference with the exact embedding of the same float64 inputs, on the
// golden device and each DC model class at 200 seeded biases inside the
// design box (Vgs 0.28-0.72 V, Vds 1.5-4.2 V), five frequencies per bias
// drawn from the in-band and stability grids. Embed's largest normwise
// error must not exceed the reference's, for A and for CA.
func TestEmbedAccuracyAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("256-bit oracle sweep")
	}
	freqs := oracleFreqs()
	rng := rand.New(rand.NewSource(20))
	var newA, oldA, newCA, oldCA errStats
	var driftA, driftCA float64
	for _, d := range oracleDevices() {
		for k := 0; k < 200; k++ {
			b := Bias{Vgs: 0.28 + 0.44*rng.Float64(), Vds: 1.5 + 2.7*rng.Float64()}
			st := d.BandStateAt(b)
			for p := 0; p < 5; p++ {
				f := freqs[rng.Intn(len(freqs))]
				at := fmt.Sprintf("%s (%.4f, %.4f) V %.4g Hz", d.Name, b.Vgs, b.Vds, f)
				yInt, cyInt := IntrinsicNoisyY(st.SS, f, d.Noise.Tg, st.Td)
				got, err := Embed(yInt, cyInt, d.Ext, f, d.Noise.Ta)
				if err != nil {
					t.Fatalf("%s: Embed: %v", at, err)
				}
				ref, err := embedChainRef(yInt, cyInt, d.Ext, f, d.Noise.Ta)
				if err != nil {
					t.Fatalf("%s: chain reference: %v", at, err)
				}
				// The float64 inputs both sequences compute the same way.
				w := 2 * math.Pi * f
				ex, tn := d.Ext, d.Noise.Ta/mathx.T0
				a, ca := oracleEmbedding(yInt, cyInt,
					complex(ex.Rg, w*ex.Lg), complex(ex.Rs, w*ex.Ls), complex(ex.Rd, w*ex.Ld),
					ex.Rg*tn, ex.Rs*tn, ex.Rd*tn,
					complex(0, w*ex.Cpg), complex(0, w*ex.Cpd))
				newA.add(normRelErr(got.A, a), at)
				oldA.add(normRelErr(ref.A, a), at)
				newCA.add(normRelErr(got.CA, ca), at)
				oldCA.add(normRelErr(ref.CA, ca), at)
				driftA = math.Max(driftA, relDiff(got.A, ref.A))
				driftCA = math.Max(driftCA, relDiff(got.CA, ref.CA))
			}
		}
	}
	t.Logf("%d points; normwise relative error against the %d-bit oracle:", newA.n, oraclePrec)
	t.Logf("A:  Embed max %.3g mean %.3g (at %s); chain reference max %.3g mean %.3g (at %s)",
		newA.max, newA.mean(), newA.at, oldA.max, oldA.mean(), oldA.at)
	t.Logf("CA: Embed max %.3g mean %.3g (at %s); chain reference max %.3g mean %.3g (at %s)",
		newCA.max, newCA.mean(), newCA.at, oldCA.max, oldCA.mean(), oldCA.at)
	t.Logf("largest Embed vs chain-reference drift: A %.3g, CA %.3g", driftA, driftCA)
	if newA.max > oldA.max {
		t.Errorf("A: Embed's max error %.3g exceeds the chain reference's %.3g", newA.max, oldA.max)
	}
	if newCA.max > oldCA.max {
		t.Errorf("CA: Embed's max error %.3g exceeds the chain reference's %.3g", newCA.max, oldCA.max)
	}
}

// TestEmbedABCDMatchesChainReference pins the A-only embedding's drift
// against its verbatim predecessor on the oracle corpus: both fail together
// or agree to a few ulps.
func TestEmbedABCDMatchesChainReference(t *testing.T) {
	freqs := oracleFreqs()
	rng := rand.New(rand.NewSource(21))
	var drift float64
	for _, d := range oracleDevices() {
		for k := 0; k < 50; k++ {
			b := Bias{Vgs: 0.28 + 0.44*rng.Float64(), Vds: 1.5 + 2.7*rng.Float64()}
			ss := d.SmallSignalAt(b)
			for _, f := range freqs {
				yInt := IntrinsicY(ss, f)
				got, err := EmbedABCD(yInt, d.Ext, f)
				ref, errRef := embedABCDChainRef(yInt, d.Ext, f)
				if (err == nil) != (errRef == nil) {
					t.Fatalf("%s at %v, %g Hz: EmbedABCD error %v, reference %v", d.Name, b, f, err, errRef)
				}
				if err == nil {
					drift = math.Max(drift, relDiff(got, ref))
				}
			}
		}
	}
	t.Logf("largest EmbedABCD vs chain-reference drift: %.3g", drift)
	if drift > 1e-13 {
		t.Errorf("EmbedABCD drifted %.3g from the chain reference, want a few ulps", drift)
	}
}

// TestSFromSmallSignalMatchesPreChangeBody pins SFromSmallSignal, the
// extraction's S-fit embedding, bit for bit to its verbatim pre-change
// body on seeded small-signal models, extrinsics and frequencies, errors
// included.
func TestSFromSmallSignalMatchesPreChangeBody(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	scale := func(v float64) float64 { return v * math.Exp(rng.NormFloat64()) }
	devs := oracleDevices()
	compared := 0
	for k := 0; k < 4000; k++ {
		d := devs[k%len(devs)]
		b := Bias{Vgs: -0.2 + 1.2*rng.Float64(), Vds: 4.5 * rng.Float64()}
		ss := d.SmallSignalAt(b)
		ss.Cgs, ss.Cgd, ss.Ri, ss.Tau = scale(ss.Cgs), scale(ss.Cgd), scale(ss.Ri), scale(ss.Tau)
		ex := d.Ext
		ex.Rg, ex.Rs, ex.Rd = scale(ex.Rg), scale(ex.Rs), scale(ex.Rd)
		ex.Lg, ex.Ls, ex.Ld = scale(ex.Lg), scale(ex.Ls), scale(ex.Ld)
		ex.Cpg, ex.Cpd = scale(ex.Cpg), scale(ex.Cpd)
		switch k % 7 {
		case 1:
			ss.Gm = 0
		case 2:
			ss.Cgd = 0
		case 3:
			ex.Rs, ex.Ls = 0, 0
		}
		f := math.Exp(math.Log(0.05e9) + rng.Float64()*math.Log(40e9/0.05e9))
		got, err := SFromSmallSignal(ss, ex, f, 50)
		want, errWant := sFromSmallSignalRef(ss, ex, f, 50)
		if (err == nil) != (errWant == nil) || (err != nil && err.Error() != errWant.Error()) {
			t.Fatalf("case %d: error %v, pre-change body %v", k, err, errWant)
		}
		if err != nil {
			continue
		}
		compared++
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if !sameBits(got[i][j], want[i][j]) {
					t.Fatalf("case %d: S%d%d = %v, pre-change body %v", k, i+1, j+1, got[i][j], want[i][j])
				}
			}
		}
	}
	if compared < 3000 {
		t.Fatalf("only %d of 4000 cases embedded", compared)
	}
}

// sameBits reports whether two complex values have identical bit patterns.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

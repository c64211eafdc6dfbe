package twoport

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// invHadamard is Inv as it was before the square-root-free screen, kept
// verbatim as the reference the screened Inv must match in error and bits.
func invHadamard(m Mat2) (Mat2, error) {
	d := m.Det()
	r1 := cmplx.Abs(m[0][0]) + cmplx.Abs(m[0][1])
	r2 := cmplx.Abs(m[1][0]) + cmplx.Abs(m[1][1])
	if cmplx.Abs(d) <= 1e-12*r1*r2 {
		return Mat2{}, ErrSingularNetwork
	}
	return Mat2{
		{m[1][1] / d, -m[0][1] / d},
		{-m[1][0] / d, m[0][0] / d},
	}, nil
}

// invMismatch describes how Inv(m) differs from invHadamard(m), or returns
// "" when both return the same error and the same bits.
func invMismatch(m Mat2) string {
	got, gotErr := m.Inv()
	want, wantErr := invHadamard(m)
	if gotErr != wantErr {
		return "error " + errString(gotErr) + ", reference " + errString(wantErr)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			g, w := got[i][j], want[i][j]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				return "entry differs from reference"
			}
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// matFromBits builds a matrix from eight raw float64 bit patterns, real
// and imaginary part of each entry in row order.
func matFromBits(b [8]uint64) Mat2 {
	c := func(k int) complex128 {
		return complex(math.Float64frombits(b[k]), math.Float64frombits(b[k+1]))
	}
	return Mat2{{c(0), c(2)}, {c(4), c(6)}}
}

// nearThreshold returns the matrix [[1, 1], [1, 1+delta]] rotated by
// angle: its determinant is delta up to rounding and its row norms are 2
// and 2+delta, so delta = 4e-12 sits on Inv's singularity threshold and
// delta = 1.6e-11 on the screen's.
func nearThreshold(delta, angle float64) Mat2 {
	r := cmplx.Rect(1, angle)
	return Mat2{{r, r}, {r, r * complex(1+delta, 0)}}
}

// TestInvMatchesHadamard is the fence of Inv's screen: on random,
// near-singular and degenerate matrices, Inv returns exactly what the
// screen-less reference returns.
func TestInvMatchesHadamard(t *testing.T) {
	var cases []Mat2
	rng := rand.New(rand.NewSource(12))
	entry := func(scale float64) complex128 {
		return complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
	}
	for k := 0; k < 20000; k++ {
		scale := math.Pow(10, float64(rng.Intn(640)-320))
		cases = append(cases, Mat2{{entry(scale), entry(scale)}, {entry(scale), entry(scale)}})
	}
	// Rank one plus a perturbation swept across the 1e-12 threshold.
	for k := 0; k < 20000; k++ {
		u := [2]complex128{entry(1), entry(1)}
		v := [2]complex128{entry(1), entry(1)}
		eps := math.Pow(10, -16+8*rng.Float64())
		cases = append(cases, Mat2{
			{u[0]*v[0] + complex(eps, 0)*entry(1), u[0]*v[1] + complex(eps, 0)*entry(1)},
			{u[1]*v[0] + complex(eps, 0)*entry(1), u[1]*v[1] + complex(eps, 0)*entry(1)},
		})
	}
	for _, delta := range []float64{0, 1e-13, 3.9e-12, 4e-12, 4.1e-12, 1e-11, 1.59e-11, 1.6e-11, 1.61e-11, 1e-9} {
		for _, angle := range []float64{0, 0.3, math.Pi / 4, 2} {
			cases = append(cases, nearThreshold(delta, angle))
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	sub := math.SmallestNonzeroFloat64
	cases = append(cases,
		Mat2{},
		Mat2{{1, 0}, {0, 0}},
		Mat2{{complex(sub, 0), 0}, {0, complex(sub, sub)}},
		Mat2{{complex(3*sub, sub), complex(sub, 0)}, {complex(0, 2*sub), complex(5*sub, 0)}},
		Mat2{{1e-160, 0}, {0, 1e-160}},
		Mat2{{1e155, 1}, {1, 1e155}},
		Mat2{{1e155, 1e155}, {-1e155, 1e155}},
		Mat2{{1e300, 1}, {1, 1e300}},
		Mat2{{complex(math.MaxFloat64, 0), 0}, {0, complex(0, math.MaxFloat64)}},
		Mat2{{complex(inf, 0), 1}, {1, 1}},
		Mat2{{complex(-inf, 1), 1}, {1, complex(0, inf)}},
		Mat2{{complex(nan, 0), 1}, {1, 1}},
		Mat2{{1, 2}, {3, complex(4, nan)}},
		Mat2{{complex(nan, nan), complex(nan, nan)}, {complex(nan, nan), complex(nan, nan)}},
	)
	// outcomes counts screen passes, screen misses that Inv still inverts,
	// and singular matrices: the fence must reach all three.
	var outcomes [3]int
	for i, m := range cases {
		if msg := invMismatch(m); msg != "" {
			t.Fatalf("case %d %v: %s", i, m, msg)
		}
		switch _, err := m.Inv(); {
		case clearlyNonsingular(m, m.Det()):
			outcomes[0]++
		case err == nil:
			outcomes[1]++
		default:
			outcomes[2]++
		}
	}
	for k, n := range outcomes {
		if n < 10 {
			t.Errorf("outcome %d (screened, inverted after the test, singular) reached by %d cases: %v", k, n, outcomes)
		}
	}
}

// TestInvScreenAcceptsWellConditioned checks the screen does its job: any
// matrix whose determinant is not within 1e-10 of Hadamard's bound skips
// the square roots.
func TestInvScreenAcceptsWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for k := 0; k < 20000; k++ {
		scale := math.Pow(10, float64(rng.Intn(60)-30))
		var m Mat2
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				m[i][j] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
			}
		}
		d := m.Det()
		r1 := cmplx.Abs(m[0][0]) + cmplx.Abs(m[0][1])
		r2 := cmplx.Abs(m[1][0]) + cmplx.Abs(m[1][1])
		if cmplx.Abs(d) <= 1e-10*r1*r2 {
			continue
		}
		checked++
		if !clearlyNonsingular(m, d) {
			t.Fatalf("screen rejected %v: |det| %g, Hadamard bound %g", m, cmplx.Abs(d), r1*r2)
		}
	}
	if checked < 19000 {
		t.Fatalf("only %d of 20000 matrices were well conditioned", checked)
	}
}

// FuzzInvMatchesHadamard feeds Inv arbitrary bit patterns — NaN payloads,
// infinities, subnormals, overflow — and requires the reference's error
// and bits.
func FuzzInvMatchesHadamard(f *testing.F) {
	seed := func(m Mat2) {
		var b [8]uint64
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				b[4*i+2*j] = math.Float64bits(real(m[i][j]))
				b[4*i+2*j+1] = math.Float64bits(imag(m[i][j]))
			}
		}
		f.Add(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7])
	}
	seed(Mat2{{3, 1i}, {-1i, 2}})
	seed(nearThreshold(4e-12, 0))
	seed(nearThreshold(1.6e-11, 0.3))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, k uint64) {
		m := matFromBits([8]uint64{a, b, c, d, e, g, h, k})
		if msg := invMismatch(m); msg != "" {
			t.Fatalf("%v: %s", m, msg)
		}
	})
}

package noise

import (
	"fmt"
	"math"
	"math/cmplx"

	"gnsslna/internal/mathx"
	"gnsslna/internal/twoport"
)

// TwoPort is a noisy linear two-port: a deterministic network (chain/ABCD
// matrix A) plus its noise correlation matrix CA in the chain
// representation, normalized to 4*k*T0.
type TwoPort struct {
	// A is the chain (ABCD) matrix of the network.
	A twoport.Mat2
	// CA is the chain-representation noise correlation matrix / (4 k T0).
	CA twoport.Mat2
}

// Noiseless wraps a chain matrix with zero noise (an idealized or lossless
// network).
func Noiseless(a twoport.Mat2) TwoPort {
	return TwoPort{A: a}
}

// PassiveFromABCD builds the noisy two-port of a passive reciprocal network
// given its chain matrix and physical temperature in kelvin, via the
// thermodynamic relation CY = 4 k T Re(Y) (normalized: (T/T0) * Herm(Y)).
func PassiveFromABCD(a twoport.Mat2, temp float64) (TwoPort, error) {
	y, err := twoport.ABCDToY(a)
	if err != nil {
		// Degenerate chain matrices (pure series element) are handled via
		// their explicit constructors; fall back to the direct CA forms.
		return TwoPort{}, fmt.Errorf("noise: passive network: %w", err)
	}
	cy := hermitianPart(y).Scale(complex(temp/mathx.T0, 0))
	return FromY(y, cy)
}

// SeriesZ returns the noisy two-port of a series impedance z at physical
// temperature temp.
func SeriesZ(z complex128, temp float64) TwoPort {
	return TwoPort{
		A:  twoport.SeriesZ(z),
		CA: twoport.Mat2{{complex(real(z)*temp/mathx.T0, 0), 0}, {0, 0}},
	}
}

// ShuntY returns the noisy two-port of a shunt admittance y at physical
// temperature temp.
func ShuntY(y complex128, temp float64) TwoPort {
	return TwoPort{
		A:  twoport.ShuntY(y),
		CA: twoport.Mat2{{0, 0}, {0, complex(real(y)*temp/mathx.T0, 0)}},
	}
}

// FromY builds the chain-representation noisy two-port from an admittance
// matrix and its (normalized) CY correlation matrix.
func FromY(y, cy twoport.Mat2) (TwoPort, error) {
	a, err := twoport.YToABCD(y)
	if err != nil {
		return TwoPort{}, fmt.Errorf("noise: FromY: %w", err)
	}
	// Hillbrand-Russer transformation CY -> CA with T = [[0, A12],[1, A22]].
	t := twoport.Mat2{{0, a[0][1]}, {1, a[1][1]}}
	return TwoPort{A: a, CA: cy.Congruence(t)}, nil
}

// ToY returns the admittance matrix and (normalized) CY correlation matrix
// of the noisy two-port.
func (n TwoPort) ToY() (y, cy twoport.Mat2, err error) {
	y, err = twoport.ABCDToY(n.A)
	if err != nil {
		return twoport.Mat2{}, twoport.Mat2{}, fmt.Errorf("noise: ToY: %w", err)
	}
	// Hillbrand-Russer transformation CA -> CY with T = [[-Y11, 1],[-Y21, 0]].
	t := twoport.Mat2{{-y[0][0], 1}, {-y[1][0], 0}}
	return y, n.CA.Congruence(t), nil
}

// Cascade returns the noisy two-port of n followed by m (signal flows
// n then m). CascadeWith is its in-place form.
func (n TwoPort) Cascade(m TwoPort) TwoPort {
	return TwoPort{
		A:  n.A.Mul(m.A),
		CA: n.CA.Add(m.CA.Congruence(n.A)),
	}
}

// S returns the scattering matrix of the network at reference z0.
func (n TwoPort) S(z0 float64) (twoport.Mat2, error) {
	return twoport.ABCDToS(n.A, z0)
}

// FigureY returns the noise figure (linear) seen from a source with
// admittance ys, computed directly from the correlation matrix.
func (n TwoPort) FigureY(ys complex128) float64 {
	gs := real(ys)
	if gs <= 0 {
		return math.Inf(1)
	}
	num := real(n.CA[1][1]) + sqAbs(ys)*real(n.CA[0][0]) + 2*real(ys*n.CA[0][1])
	return 1 + num/gs
}

// Figure returns the noise figure (linear) for source reflection gammaS at
// reference z0.
func (n TwoPort) Figure(gammaS complex128, z0 float64) float64 {
	return n.FigureY(1 / twoport.ZFromGamma(gammaS, z0))
}

// NoiseParams extracts the four noise parameters from the correlation
// matrix. It returns ErrNotPhysical when CA has negative noise resistance.
func (n TwoPort) NoiseParams(z0 float64) (Params, error) {
	rn := real(n.CA[0][0])
	if rn < 0 {
		return Params{}, ErrNotPhysical
	}
	if rn == 0 {
		// A strictly noiseless (or v-noise-free) network: treat Rn as a tiny
		// positive value so downstream formulas stay finite.
		rn = 1e-30
	}
	ratio := n.CA[0][1] / complex(rn, 0)
	bopt := imag(ratio)
	g2 := real(n.CA[1][1])/rn - bopt*bopt
	if g2 < 0 {
		g2 = 0
	}
	gopt := math.Sqrt(g2)
	fmin := 1 + 2*(real(n.CA[0][1])+rn*gopt)
	yopt := complex(gopt, bopt)
	gammaOpt := complex(1, 0) // Yopt = 0: the optimum source is an open
	if yopt != 0 {
		gammaOpt = twoport.GammaFromZ(1/yopt, z0)
	}
	return Params{
		Fmin:     fmin,
		Rn:       rn,
		GammaOpt: gammaOpt,
		Z0:       z0,
	}, nil
}

// FromNoiseParams builds the CA correlation matrix corresponding to the four
// noise parameters, attached to the given chain matrix.
func FromNoiseParams(a twoport.Mat2, p Params) TwoPort {
	yopt := p.YOpt()
	c12 := complex((p.Fmin-1)/2, 0) - complex(p.Rn, 0)*cmplx.Conj(yopt)
	return TwoPort{
		A: a,
		CA: twoport.Mat2{
			{complex(p.Rn, 0), c12},
			{cmplx.Conj(c12), complex(p.Rn*sqAbs(yopt), 0)},
		},
	}
}

// FromZ builds the noisy two-port from an impedance matrix and its
// (normalized) CZ correlation matrix, used when embedding common-lead
// (series-feedback) parasitics.
func FromZ(z, cz twoport.Mat2) (TwoPort, error) {
	y, err := twoport.ZToY(z)
	if err != nil {
		return TwoPort{}, fmt.Errorf("noise: FromZ: %w", err)
	}
	return FromY(y, cz.Congruence(y)) // CY = Y CZ Y^H
}

// ToZ returns the impedance matrix and (normalized) CZ correlation matrix.
func (n TwoPort) ToZ() (z, cz twoport.Mat2, err error) {
	y, cy, err := n.ToY()
	if err != nil {
		return twoport.Mat2{}, twoport.Mat2{}, err
	}
	z, err = twoport.YToZ(y)
	if err != nil {
		return twoport.Mat2{}, twoport.Mat2{}, fmt.Errorf("noise: ToZ: %w", err)
	}
	return z, cy.Congruence(z), nil // CZ = Z CY Z^H
}

// hermitianPart returns (m + m^H)/2.
func hermitianPart(m twoport.Mat2) twoport.Mat2 {
	h := m.Add(m.ConjTranspose())
	return h.Scale(0.5)
}

// Package device models the low-noise pHEMT at the center of the paper's
// preamplifier: five nonlinear DC drain-current models (Curtice quadratic
// and cubic, Statz, TOM and Angelov) used in the model-comparison study, a
// bias-dependent small-signal equivalent circuit with extrinsic parasitics,
// and the Pospieszalski two-temperature noise model producing exact noise
// correlation matrices for the embedded device.
package device

import (
	"fmt"
	"math"

	"gnsslna/internal/mathx"
)

// DCModel is a nonlinear drain-current model Ids(Vgs, Vds) with a flat
// parameter vector so extraction code can optimize any model generically.
type DCModel interface {
	// Name identifies the model in reports.
	Name() string
	// Ids returns the drain current in amperes at the given gate-source and
	// drain-source voltages.
	Ids(vgs, vds float64) float64
	// Params returns a copy of the parameter vector.
	Params() []float64
	// SetParams replaces the parameter vector.
	SetParams(p []float64) error
	// ParamNames returns the parameter names, aligned with Params.
	ParamNames() []string
	// Bounds returns elementwise lower and upper parameter bounds for
	// global search.
	Bounds() (lo, hi []float64)
}

// Gm returns the transconductance dIds/dVgs of a model at a bias point.
func Gm(m DCModel, vgs, vds float64) float64 {
	return mathx.Derivative(func(v float64) float64 { return m.Ids(v, vds) }, vgs)
}

// Gds returns the output conductance dIds/dVds of a model at a bias point.
func Gds(m DCModel, vgs, vds float64) float64 {
	return mathx.Derivative(func(v float64) float64 { return m.Ids(vgs, v) }, vds)
}

// Gm2 returns the second derivative of Ids with respect to Vgs, the
// quadratic nonlinearity coefficient driving second-order intermodulation.
func Gm2(m DCModel, vgs, vds float64) float64 {
	return mathx.Derivative2(func(v float64) float64 { return m.Ids(v, vds) }, vgs)
}

// Gm3 returns the third derivative of Ids with respect to Vgs, which sets
// third-order intermodulation.
func Gm3(m DCModel, vgs, vds float64) float64 {
	return mathx.Derivative3(func(v float64) float64 { return m.Ids(v, vds) }, vgs)
}

func checkLen(name string, p []float64, want int) error {
	if len(p) != want {
		return fmt.Errorf("device: %s expects %d parameters, got %d", name, want, len(p))
	}
	return nil
}

// CurticeQuadratic is the Curtice (1980) square-law MESFET/HEMT model:
// Ids = Beta (Vgs-Vto)^2 (1 + Lambda Vds) tanh(Alpha Vds).
type CurticeQuadratic struct {
	Beta, Vto, Lambda, Alpha float64
}

var _ DCModel = (*CurticeQuadratic)(nil)

// NewCurticeQuadratic returns the model with neutral starting parameters.
func NewCurticeQuadratic() *CurticeQuadratic {
	return &CurticeQuadratic{Beta: 0.2, Vto: 0.3, Lambda: 0.05, Alpha: 3}
}

// Name implements DCModel.
func (m *CurticeQuadratic) Name() string { return "Curtice-2" }

// Ids implements DCModel.
func (m *CurticeQuadratic) Ids(vgs, vds float64) float64 {
	v := vgs - m.Vto
	if v <= 0 {
		return 0
	}
	return m.Beta * v * v * (1 + m.Lambda*vds) * math.Tanh(m.Alpha*vds)
}

// Params implements DCModel.
func (m *CurticeQuadratic) Params() []float64 {
	return []float64{m.Beta, m.Vto, m.Lambda, m.Alpha}
}

// SetParams implements DCModel.
func (m *CurticeQuadratic) SetParams(p []float64) error {
	if err := checkLen(m.Name(), p, 4); err != nil {
		return err
	}
	m.Beta, m.Vto, m.Lambda, m.Alpha = p[0], p[1], p[2], p[3]
	return nil
}

// ParamNames implements DCModel.
func (m *CurticeQuadratic) ParamNames() []string {
	return []string{"Beta", "Vto", "Lambda", "Alpha"}
}

// Bounds implements DCModel.
func (m *CurticeQuadratic) Bounds() (lo, hi []float64) {
	return []float64{0.01, -1, 0, 0.5}, []float64{2, 1, 0.5, 10}
}

// CurticeCubic is the Curtice-Ettenberg (1985) cubic model:
// Ids = (A0 + A1 V1 + A2 V1^2 + A3 V1^3) tanh(Gamma Vds),
// V1 = Vgs (1 + Beta (Vds0 - Vds)).
type CurticeCubic struct {
	A0, A1, A2, A3, Beta, Gamma, Vds0 float64
}

var _ DCModel = (*CurticeCubic)(nil)

// NewCurticeCubic returns the model with neutral starting parameters.
func NewCurticeCubic() *CurticeCubic {
	return &CurticeCubic{A0: 0.02, A1: 0.1, A2: 0.1, A3: 0.02, Beta: 0, Gamma: 3, Vds0: 3}
}

// Name implements DCModel.
func (m *CurticeCubic) Name() string { return "Curtice-3" }

// Ids implements DCModel.
func (m *CurticeCubic) Ids(vgs, vds float64) float64 {
	v1 := vgs * (1 + m.Beta*(m.Vds0-vds))
	// The cubic fit is only physical on its ascending branch; clamp V1 to
	// the interval where dIds/dV1 >= 0 so the model pinches off cleanly
	// instead of re-rising at large negative gate voltages.
	v1 = m.clampToAscending(v1)
	i := m.A0 + v1*(m.A1+v1*(m.A2+v1*m.A3))
	if i <= 0 {
		return 0
	}
	return i * math.Tanh(m.Gamma*vds)
}

// clampToAscending restricts v1 to the branch of the cubic where the
// polynomial is non-decreasing.
func (m *CurticeCubic) clampToAscending(v1 float64) float64 {
	// Critical points: roots of 3 A3 v^2 + 2 A2 v + A1 = 0.
	a, b, c := 3*m.A3, 2*m.A2, m.A1
	if a == 0 {
		if b == 0 {
			return v1
		}
		// Quadratic current: ascending for v >= -c/b when b > 0.
		root := -c / b
		if b > 0 && v1 < root {
			return root
		}
		if b < 0 && v1 > root {
			return root
		}
		return v1
	}
	disc := b*b - 4*a*c
	if disc <= 0 {
		return v1 // monotone cubic
	}
	sq := math.Sqrt(disc)
	c1 := (-b - sq) / (2 * a)
	c2 := (-b + sq) / (2 * a)
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	if a > 0 {
		// Ascending on (-inf, c1] and [c2, inf): use the physical upper
		// branch.
		if v1 < c2 {
			return c2
		}
		return v1
	}
	// a < 0: ascending only on [c1, c2].
	return math.Min(math.Max(v1, c1), c2)
}

// Params implements DCModel.
func (m *CurticeCubic) Params() []float64 {
	return []float64{m.A0, m.A1, m.A2, m.A3, m.Beta, m.Gamma, m.Vds0}
}

// SetParams implements DCModel.
func (m *CurticeCubic) SetParams(p []float64) error {
	if err := checkLen(m.Name(), p, 7); err != nil {
		return err
	}
	m.A0, m.A1, m.A2, m.A3, m.Beta, m.Gamma, m.Vds0 = p[0], p[1], p[2], p[3], p[4], p[5], p[6]
	return nil
}

// ParamNames implements DCModel.
func (m *CurticeCubic) ParamNames() []string {
	return []string{"A0", "A1", "A2", "A3", "Beta", "Gamma", "Vds0"}
}

// Bounds implements DCModel.
func (m *CurticeCubic) Bounds() (lo, hi []float64) {
	return []float64{-0.2, -1, -1, -1, -0.2, 0.5, 0.5},
		[]float64{0.2, 1, 1, 1, 0.2, 10, 6}
}

// Statz is the Statz (Raytheon, 1987) model with its polynomial knee below
// Vds = 3/Alpha:
// Ids = Beta (Vgs-Vto)^2 / (1 + B (Vgs-Vto)) * K(Vds) * (1 + Lambda Vds).
type Statz struct {
	Beta, Vto, B, Alpha, Lambda float64
}

var _ DCModel = (*Statz)(nil)

// NewStatz returns the model with neutral starting parameters.
func NewStatz() *Statz {
	return &Statz{Beta: 0.25, Vto: 0.3, B: 1, Alpha: 2.5, Lambda: 0.05}
}

// Name implements DCModel.
func (m *Statz) Name() string { return "Statz" }

// Ids implements DCModel.
func (m *Statz) Ids(vgs, vds float64) float64 {
	v := vgs - m.Vto
	if v <= 0 {
		return 0
	}
	sat := 1.0
	if m.Alpha*vds < 3 {
		u := 1 - m.Alpha*vds/3
		sat = 1 - u*u*u
	}
	den := 1 + m.B*v
	if den <= 1e-9 {
		den = 1e-9
	}
	return m.Beta * v * v / den * sat * (1 + m.Lambda*vds)
}

// Params implements DCModel.
func (m *Statz) Params() []float64 {
	return []float64{m.Beta, m.Vto, m.B, m.Alpha, m.Lambda}
}

// SetParams implements DCModel.
func (m *Statz) SetParams(p []float64) error {
	if err := checkLen(m.Name(), p, 5); err != nil {
		return err
	}
	m.Beta, m.Vto, m.B, m.Alpha, m.Lambda = p[0], p[1], p[2], p[3], p[4]
	return nil
}

// ParamNames implements DCModel.
func (m *Statz) ParamNames() []string {
	return []string{"Beta", "Vto", "B", "Alpha", "Lambda"}
}

// Bounds implements DCModel.
func (m *Statz) Bounds() (lo, hi []float64) {
	return []float64{0.01, -1, 0, 0.5, 0}, []float64{2, 1, 10, 10, 0.5}
}

// TOM is the TriQuint's Own Model (TOM-1, 1990): a power-law current with
// drain-feedback threshold shift and self-heating-like compression:
// Ids0 = Beta (Vgs - Vto + Gamma Vds)^Q tanh(Alpha Vds),
// Ids  = Ids0 / (1 + Delta Vds Ids0).
type TOM struct {
	Beta, Vto, Q, Gamma, Delta, Alpha float64
}

var _ DCModel = (*TOM)(nil)

// NewTOM returns the model with neutral starting parameters.
func NewTOM() *TOM {
	return &TOM{Beta: 0.15, Vto: 0.3, Q: 2, Gamma: 0.02, Delta: 0.1, Alpha: 3}
}

// Name implements DCModel.
func (m *TOM) Name() string { return "TOM" }

// Ids implements DCModel.
func (m *TOM) Ids(vgs, vds float64) float64 {
	v := vgs - m.Vto + m.Gamma*vds
	if v <= 0 {
		return 0
	}
	q := m.Q
	if q < 1 {
		q = 1
	}
	i0 := m.Beta * math.Pow(v, q) * math.Tanh(m.Alpha*vds)
	den := 1 + m.Delta*vds*i0
	if den <= 1e-9 {
		den = 1e-9
	}
	return i0 / den
}

// Params implements DCModel.
func (m *TOM) Params() []float64 {
	return []float64{m.Beta, m.Vto, m.Q, m.Gamma, m.Delta, m.Alpha}
}

// SetParams implements DCModel.
func (m *TOM) SetParams(p []float64) error {
	if err := checkLen(m.Name(), p, 6); err != nil {
		return err
	}
	m.Beta, m.Vto, m.Q, m.Gamma, m.Delta, m.Alpha = p[0], p[1], p[2], p[3], p[4], p[5]
	return nil
}

// ParamNames implements DCModel.
func (m *TOM) ParamNames() []string {
	return []string{"Beta", "Vto", "Q", "Gamma", "Delta", "Alpha"}
}

// Bounds implements DCModel.
func (m *TOM) Bounds() (lo, hi []float64) {
	return []float64{0.01, -1, 1, -0.2, 0, 0.5}, []float64{2, 1, 3, 0.2, 2, 10}
}

// Angelov is the Angelov/Chalmers (1992) model, the de-facto standard for
// pHEMTs thanks to its accurate bell-shaped transconductance:
// Ids = Ipk (1 + tanh(Psi)) (1 + Lambda Vds) tanh(Alpha Vds),
// Psi = P1 (Vgs-Vpk) + P2 (Vgs-Vpk)^2 + P3 (Vgs-Vpk)^3.
type Angelov struct {
	Ipk, Vpk, P1, P2, P3, Lambda, Alpha float64
}

var _ DCModel = (*Angelov)(nil)

// NewAngelov returns the model with neutral starting parameters.
func NewAngelov() *Angelov {
	return &Angelov{Ipk: 0.08, Vpk: 0.5, P1: 2, P2: 0, P3: 0.1, Lambda: 0.05, Alpha: 3}
}

// Name implements DCModel.
func (m *Angelov) Name() string { return "Angelov" }

// Ids implements DCModel.
func (m *Angelov) Ids(vgs, vds float64) float64 {
	dv := vgs - m.Vpk
	psi := dv * (m.P1 + dv*(m.P2+dv*m.P3))
	return m.Ipk * (1 + math.Tanh(psi)) * (1 + m.Lambda*vds) * math.Tanh(m.Alpha*vds)
}

// Params implements DCModel.
func (m *Angelov) Params() []float64 {
	return []float64{m.Ipk, m.Vpk, m.P1, m.P2, m.P3, m.Lambda, m.Alpha}
}

// SetParams implements DCModel.
func (m *Angelov) SetParams(p []float64) error {
	if err := checkLen(m.Name(), p, 7); err != nil {
		return err
	}
	m.Ipk, m.Vpk, m.P1, m.P2, m.P3, m.Lambda, m.Alpha = p[0], p[1], p[2], p[3], p[4], p[5], p[6]
	return nil
}

// ParamNames implements DCModel.
func (m *Angelov) ParamNames() []string {
	return []string{"Ipk", "Vpk", "P1", "P2", "P3", "Lambda", "Alpha"}
}

// Bounds implements DCModel.
func (m *Angelov) Bounds() (lo, hi []float64) {
	return []float64{0.005, -1, 0.2, -2, -2, 0, 0.5}, []float64{0.5, 1.5, 8, 2, 2, 0.5, 10}
}

// AllModels returns fresh instances of every DC model, for the
// model-comparison experiment.
func AllModels() []DCModel {
	return []DCModel{
		NewCurticeQuadratic(),
		NewCurticeCubic(),
		NewStatz(),
		NewTOM(),
		NewAngelov(),
	}
}

// ModelByName returns a fresh instance of the DC model whose Name is
// exactly name, and whether one exists.
func ModelByName(name string) (DCModel, bool) {
	for _, m := range AllModels() {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

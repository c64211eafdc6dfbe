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
	// GridCols prepares a grid evaluation over the drain-voltage axis vds
	// under the current parameters: it fills cols, which must hold at
	// least GridColFactors*len(vds) values, with the factors of Ids that
	// depend on Vds alone. Like SetParams it may write the model, to keep
	// what depends on the parameters alone, so it must not run
	// concurrently with other calls on the same model.
	GridCols(vds, cols []float64)
	// GridRow fills dst[j] with Ids(vgs, vds[j]) for the axis cols was
	// prepared for (len(dst) == len(vds)), bit for bit, computing the
	// factors that depend on Vgs alone once for the row. The parameters
	// must not have changed since GridCols filled cols.
	GridRow(vgs float64, cols, dst []float64)
}

// GridColFactors is the largest number of Vds-only factors any model keeps
// per drain voltage: DCModel.GridCols needs GridColFactors*len(vds)
// scratch values.
// Each model's Ids is built from the same per-axis helpers as its grid and
// combines the factors in the same left-to-right order, which is what makes
// the grid equal Ids bit for bit.
const GridColFactors = 3

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
	r, on := m.row(vgs)
	if !on {
		return 0
	}
	lam, t := m.col(vds)
	return r * lam * t
}

// row is the Vgs factor Beta (Vgs-Vto)^2; on is false below threshold,
// where the current is 0.
func (m *CurticeQuadratic) row(vgs float64) (r float64, on bool) {
	v := vgs - m.Vto
	if v <= 0 {
		return 0, false
	}
	return m.Beta * v * v, true
}

// col returns the Vds factors 1 + Lambda Vds and tanh(Alpha Vds).
func (m *CurticeQuadratic) col(vds float64) (lam, t float64) {
	return 1 + m.Lambda*vds, math.Tanh(m.Alpha * vds)
}

// GridCols implements DCModel.
func (m *CurticeQuadratic) GridCols(vds, cols []float64) {
	n := len(vds)
	lam, t := cols[:n], cols[n:2*n]
	for j, v := range vds {
		lam[j], t[j] = m.col(v)
	}
}

// GridRow implements DCModel.
func (m *CurticeQuadratic) GridRow(vgs float64, cols, dst []float64) {
	r, on := m.row(vgs)
	if !on {
		clear(dst)
		return
	}
	n := len(dst)
	lam, t := cols[:n], cols[n:2*n]
	for j := range dst {
		dst[j] = r * lam[j] * t[j]
	}
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

	// grid is the clamp of the parameters GridCols last saw, for GridRow.
	grid ascendingClamp
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
	s, t := m.col(vds)
	return m.at(m.clampToAscending(), vgs, s, t)
}

// col returns the Vds factors 1 + Beta (Vds0 - Vds) and tanh(Gamma Vds).
func (m *CurticeCubic) col(vds float64) (s, t float64) {
	return 1 + m.Beta*(m.Vds0-vds), math.Tanh(m.Gamma * vds)
}

// at is the current at vgs from the Vds factors s and t of col.
func (m *CurticeCubic) at(c ascendingClamp, vgs, s, t float64) float64 {
	// The cubic fit is only physical on its ascending branch; clamp V1 to
	// the interval where dIds/dV1 >= 0 so the model pinches off cleanly
	// instead of re-rising at large negative gate voltages.
	v1 := c.apply(vgs * s)
	i := m.A0 + v1*(m.A1+v1*(m.A2+v1*m.A3))
	if i <= 0 {
		return 0
	}
	return i * t
}

// GridCols implements DCModel. The ascending-branch clamp depends on the
// parameters alone, so it is computed here once and kept for GridRow.
func (m *CurticeCubic) GridCols(vds, cols []float64) {
	n := len(vds)
	s, t := cols[:n], cols[n:2*n]
	for j, v := range vds {
		s[j], t[j] = m.col(v)
	}
	m.grid = m.clampToAscending()
}

// GridRow implements DCModel.
func (m *CurticeCubic) GridRow(vgs float64, cols, dst []float64) {
	n := len(dst)
	s, t := cols[:n], cols[n:2*n]
	for j := range dst {
		dst[j] = m.at(m.grid, vgs, s[j], t[j])
	}
}

// Kinds of ascendingClamp.
const (
	clampNone  = iota // monotone polynomial: V1 unchanged
	clampFloor        // V1 raised to lo
	clampCeil         // V1 lowered to hi
	clampBand         // V1 held inside [lo, hi]
)

// ascendingClamp restricts V1 to the branch of the cubic where the
// polynomial is non-decreasing.
type ascendingClamp struct {
	kind   int
	lo, hi float64
}

func (c ascendingClamp) apply(v1 float64) float64 {
	switch c.kind {
	case clampFloor:
		if v1 < c.lo {
			return c.lo
		}
	case clampCeil:
		if v1 > c.hi {
			return c.hi
		}
	case clampBand:
		return math.Min(math.Max(v1, c.lo), c.hi)
	}
	return v1
}

// clampToAscending locates the ascending branch of the current
// polynomial from its critical points, the roots of 3 A3 v^2 + 2 A2 v +
// A1 = 0.
func (m *CurticeCubic) clampToAscending() ascendingClamp {
	a, b, c := 3*m.A3, 2*m.A2, m.A1
	if a == 0 {
		// Quadratic current: ascending for v >= -c/b when b > 0.
		switch {
		case b > 0:
			return ascendingClamp{kind: clampFloor, lo: -c / b}
		case b < 0:
			return ascendingClamp{kind: clampCeil, hi: -c / b}
		}
		return ascendingClamp{}
	}
	disc := b*b - 4*a*c
	if disc <= 0 {
		return ascendingClamp{} // monotone cubic
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
		return ascendingClamp{kind: clampFloor, lo: c2}
	}
	// a < 0: ascending only on [c1, c2].
	return ascendingClamp{kind: clampBand, lo: c1, hi: c2}
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
	r, on := m.row(vgs)
	if !on {
		return 0
	}
	sat, lam := m.col(vds)
	return r * sat * lam
}

// row is the Vgs factor Beta (Vgs-Vto)^2 / (1 + B (Vgs-Vto)); on is false
// below threshold, where the current is 0.
func (m *Statz) row(vgs float64) (r float64, on bool) {
	v := vgs - m.Vto
	if v <= 0 {
		return 0, false
	}
	den := 1 + m.B*v
	if den <= 1e-9 {
		den = 1e-9
	}
	return m.Beta * v * v / den, true
}

// col returns the Vds factors: the knee K(Vds) and 1 + Lambda Vds.
func (m *Statz) col(vds float64) (sat, lam float64) {
	sat = 1.0
	if m.Alpha*vds < 3 {
		u := 1 - m.Alpha*vds/3
		sat = 1 - u*u*u
	}
	return sat, 1 + m.Lambda*vds
}

// GridCols implements DCModel.
func (m *Statz) GridCols(vds, cols []float64) {
	n := len(vds)
	sat, lam := cols[:n], cols[n:2*n]
	for j, v := range vds {
		sat[j], lam[j] = m.col(v)
	}
}

// GridRow implements DCModel.
func (m *Statz) GridRow(vgs float64, cols, dst []float64) {
	r, on := m.row(vgs)
	if !on {
		clear(dst)
		return
	}
	n := len(dst)
	sat, lam := cols[:n], cols[n:2*n]
	for j := range dst {
		dst[j] = r * sat[j] * lam[j]
	}
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
	g, t, dl := m.col(vds)
	return m.at(vgs-m.Vto, g, t, dl)
}

// col returns the Vds factors Gamma Vds, tanh(Alpha Vds) and Delta Vds.
// The explicit conversion keeps Gamma Vds rounded on its own, as the grid
// stores it, on targets that fuse multiply-add.
func (m *TOM) col(vds float64) (g, t, dl float64) {
	return float64(m.Gamma * vds), math.Tanh(m.Alpha * vds), m.Delta * vds
}

// at is the current from the Vgs factor r = Vgs - Vto and the Vds factors
// of col.
func (m *TOM) at(r, g, t, dl float64) float64 {
	v := r + g
	if v <= 0 {
		return 0
	}
	q := m.Q
	if q < 1 {
		q = 1
	}
	i0 := m.Beta * math.Pow(v, q) * t
	den := 1 + dl*i0
	if den <= 1e-9 {
		den = 1e-9
	}
	return i0 / den
}

// GridCols implements DCModel.
func (m *TOM) GridCols(vds, cols []float64) {
	n := len(vds)
	g, t, dl := cols[:n], cols[n:2*n], cols[2*n:3*n]
	for j, v := range vds {
		g[j], t[j], dl[j] = m.col(v)
	}
}

// GridRow implements DCModel.
func (m *TOM) GridRow(vgs float64, cols, dst []float64) {
	n := len(dst)
	g, t, dl := cols[:n], cols[n:2*n], cols[2*n:3*n]
	r := vgs - m.Vto
	for j := range dst {
		dst[j] = m.at(r, g[j], t[j], dl[j])
	}
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
	lam, t := m.col(vds)
	return m.row(vgs) * lam * t
}

// row is the Vgs factor Ipk (1 + tanh(Psi)).
func (m *Angelov) row(vgs float64) float64 {
	dv := vgs - m.Vpk
	psi := dv * (m.P1 + dv*(m.P2+dv*m.P3))
	return m.Ipk * (1 + math.Tanh(psi))
}

// col returns the Vds factors 1 + Lambda Vds and tanh(Alpha Vds).
func (m *Angelov) col(vds float64) (lam, t float64) {
	return 1 + m.Lambda*vds, math.Tanh(m.Alpha * vds)
}

// GridCols implements DCModel.
func (m *Angelov) GridCols(vds, cols []float64) {
	n := len(vds)
	lam, t := cols[:n], cols[n:2*n]
	for j, v := range vds {
		lam[j], t[j] = m.col(v)
	}
}

// GridRow implements DCModel.
func (m *Angelov) GridRow(vgs float64, cols, dst []float64) {
	n := len(dst)
	lam, t := cols[:n], cols[n:2*n]
	r := m.row(vgs)
	for j := range dst {
		dst[j] = r * lam[j] * t[j]
	}
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

package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync/atomic"

	"gnsslna/internal/device"
	"gnsslna/internal/mathx"
	"gnsslna/internal/noise"
	"gnsslna/internal/rfpassive"
	"gnsslna/internal/twoport"
)

// Design is the vector of free parameters the optimization selects: the
// operating point plus the essential passive elements of the matching
// networks.
type Design struct {
	// Vgs and Vds set the transistor operating point.
	Vgs, Vds float64
	// LIn is the series input matching inductance in henries.
	LIn float64
	// LDegen is the source-degeneration inductance in henries (series
	// feedback improving simultaneous noise/power match).
	LDegen float64
	// LOut is the series output matching inductance in henries.
	LOut float64
	// COut is the shunt output matching capacitance in farads.
	COut float64
}

// Vector flattens the design for the optimizers.
func (d Design) Vector() []float64 {
	return []float64{d.Vgs, d.Vds, d.LIn, d.LDegen, d.LOut, d.COut}
}

// DesignFromVector rebuilds a Design from an optimizer vector.
func DesignFromVector(x []float64) Design {
	return Design{Vgs: x[0], Vds: x[1], LIn: x[2], LDegen: x[3], LOut: x[4], COut: x[5]}
}

// DesignBounds returns the optimizer search box.
func DesignBounds() (lo, hi []float64) {
	return []float64{0.28, 1.5, 0.5e-9, 0.05e-9, 0.3e-9, 0.2e-12},
		[]float64{0.72, 4.2, 16e-9, 2.5e-9, 14e-9, 6e-12}
}

// Amplifier is a fully materialized preamplifier: the device at its bias
// with its input/output networks, ready for frequency-domain evaluation.
// Evaluation workspaces cache its compiled networks, so a built Amplifier
// is treated as immutable.
type Amplifier struct {
	// Dev is the transistor (with LDegen already folded into its common
	// lead).
	Dev *device.PHEMT
	// Bias is the operating point.
	Bias device.Bias
	// Input and Output are the matching/bias networks.
	Input, Output rfpassive.Chain
	// Design records the parameter vector that produced the amplifier.
	Design Design
}

// Builder constructs amplifiers from design vectors over a fixed substrate
// and device.
type Builder struct {
	// Dev is the transistor model used for the design.
	Dev *device.PHEMT
	// Sub is the board substrate for lines and tees.
	Sub rfpassive.Substrate
	// IdealPassives, when set, strips the design's matching elements (LIn,
	// LOut and COut) of their loss and parasitics (ideal L and C). The bias
	// tees, the stabilizer and the DC blocks keep their dispersive models.
	// The dispersion-ablation experiment uses it to quantify what the
	// paper's careful dispersive element equations buy, on the elements the
	// optimizer selects, over a textbook lossless design.
	IdealPassives bool

	// geom memoizes the design-invariant parts (see builderGeom) for the
	// builder's recent settings. The memo lives behind a plain pointer so
	// Builder values stay copyable (variants copy the builder and share
	// it); inside it atomic pointers keep concurrent Build calls race-free,
	// and rebuilding the parts after a setting changed is idempotent. Nil
	// (a zero-value Builder that bypassed NewBuilder) builds the parts on
	// every call.
	geom *geomCache
}

// geomCache holds the parts of the builder's last few settings. Copies of
// a builder share it, and the experiments alternate between such copies
// (the E6 hardware builder differs in Dev, the E7 ablation in
// IdealPassives), so one slot would rebuild the parts, and refill their
// value tables, on every alternation.
type geomCache struct {
	slots [4]atomic.Pointer[builderGeom]
	next  atomic.Uint32
}

// builderGeom is the set of parts every amplifier from one builder setting
// carries, whatever the design vector and whether its matching is lumped
// or distributed: the two bias tees, the R+L stabilizer and the DC block
// both ports use, with the 50-ohm width they sit on. Each part is wrapped
// in rfpassive.Shared, so the compiled chains of every amplifier built
// from them compute each part's factor once per frequency. It also holds
// the widths of the distributed matching's lines, wSeries and wStub; their
// synthesis error is kept in distErr, apart from err, so a lumped Build
// never fails on it. The memo is keyed by the whole Builder value with its
// memo pointer cleared, so every setting, including any field added later,
// invalidates it.
type builderGeom struct {
	key                 Builder
	w50, wSeries, wStub float64
	inTee, outTee, stab *rfpassive.Shared
	dcBlock             *rfpassive.Shared
	err, distErr        error
}

// The bias network and stabilizer values every builder uses. gateBiasR is
// the gate bias network resistance (high, lightly loads the input) and
// drainRailR the drain feed rail resistance. gateDampR and drainDampR sit
// in series with the bias-feed inductors, before the bypass capacitors.
// Below the band the feed inductors are low impedance, so these resistors
// damp the low-frequency gain peak that would otherwise make the stage
// potentially unstable; in band the feed inductors isolate them from the
// signal path. stabR and stabL form the R+L shunt stabilizer on the drain
// side. feedL is the bias-feed inductor and feedC the bypass capacitor at
// its far end, in both tees; dcBlockC is the series DC block at both
// ports.
const (
	gateBiasR  = 3300
	drainRailR = 10
	gateDampR  = 47
	drainDampR = 12
	stabR      = 68
	stabL      = 12e-9
	feedL      = 68e-9
	feedC      = 100e-12
	dcBlockC   = 100e-12
)

// NewBuilder returns a builder on the default low-loss substrate.
func NewBuilder(dev *device.PHEMT) *Builder {
	return &Builder{
		Dev:  dev,
		Sub:  rfpassive.RogersRO4350(),
		geom: &geomCache{},
	}
}

// inductor and capacitor dispatch between realistic chip models and the
// idealized variants of the ablation study.
func (b *Builder) inductor(l float64, o rfpassive.Orientation) rfpassive.Inductor {
	el := rfpassive.NewChipInductor(l, o)
	if b.IdealPassives {
		el.RDC, el.QRef, el.Cp = 0, 0, 0
	}
	return el
}

func (b *Builder) capacitor(c float64, o rfpassive.Orientation) rfpassive.Capacitor {
	el := rfpassive.NewChipCapacitor(c, o)
	if b.IdealPassives {
		el.RS0, el.TanD, el.ESL = 0, 0, 0
	}
	return el
}

// parts returns the memoized design-invariant parts for the builder's
// current settings, building them on first use of a setting and replacing
// the oldest slot.
func (b *Builder) parts() (*builderGeom, error) {
	key := *b
	key.geom = nil
	if b.geom == nil {
		g := newBuilderGeom(key)
		return g, g.err
	}
	for i := range b.geom.slots {
		if g := b.geom.slots[i].Load(); g != nil && g.key == key {
			return g, g.err
		}
	}
	g := newBuilderGeom(key)
	b.geom.slots[b.geom.next.Add(1)%uint32(len(b.geom.slots))].Store(g)
	return g, g.err
}

// newBuilderGeom builds the parts for the settings in b. The line widths
// (a 100-iteration bisection each) and the junction capacitance (two
// static microstrip fits) are computed only here.
func newBuilderGeom(b Builder) *builderGeom {
	g := &builderGeom{key: b}
	w50, err := b.Sub.WidthForZ0(50)
	if err != nil {
		g.err = err
		return g
	}
	g.w50 = w50
	// Distributed series sections use a narrow high-impedance line (a
	// distributed inductor, the hi-lo stepped-impedance idiom); stubs a
	// moderate 70 ohm.
	g.wSeries, g.distErr = b.Sub.WidthForZ0(90)
	if g.distErr == nil {
		g.wStub, g.distErr = b.Sub.WidthForZ0(70)
	}
	cj := rfpassive.Tee{Sub: b.Sub, WMain: w50, WBranch: w50 / 3}.JunctionCapacitance()
	// Both bias tees share one structure: the feed branch is L(feed) ->
	// R(damp) -> C(bypass) -> the bias resistor or rail. In band the feed
	// inductor isolates; below the band the damping resistor loads the port
	// and stabilizes the stage.
	biasTee := func(dampR, load float64) *rfpassive.Shared {
		return rfpassive.NewShared(rfpassive.Tee{
			Sub:       b.Sub,
			WMain:     w50,
			WBranch:   w50 / 3,
			CJunction: cj,
			Branch: rfpassive.Chain{
				rfpassive.NewChipInductor(feedL, rfpassive.Series),
				rfpassive.NewChipResistor(dampR, rfpassive.Series),
				rfpassive.NewChipCapacitor(feedC, rfpassive.Shunt),
			},
			BranchLoad: complex(load, 0),
		})
	}
	g.inTee = biasTee(gateDampR, gateBiasR)
	g.outTee = biasTee(drainDampR, drainRailR)
	// The R+L shunt stabilizer loads the drain below the band (where the
	// device gain peaks) and is lifted out of the way in band by its
	// inductor; being on the output it costs gain margin, not noise.
	g.stab = rfpassive.NewShared(rfpassive.StabilizerRL(stabR, stabL))
	g.dcBlock = rfpassive.NewShared(rfpassive.DCBlock(dcBlockC))
	return g
}

// Build materializes the amplifier for a design vector. Only the matching
// elements the design selects are new; the bias tees, stabilizer and DC
// blocks are the builder's shared parts.
func (b *Builder) Build(d Design) (*Amplifier, error) {
	if b.Dev == nil {
		return nil, fmt.Errorf("core: builder has no device")
	}
	g, err := b.parts()
	if err != nil {
		return nil, fmt.Errorf("core: substrate: %w", err)
	}
	// The degeneration inductance joins the device's common source lead.
	dev := *b.Dev
	dev.Ext.Ls += d.LDegen

	// Input: DC block, series matching inductor, gate bias tee. Output:
	// stabilizer, drain bias tee, series inductor, shunt capacitor, DC
	// block.
	input := rfpassive.Chain{
		g.dcBlock,
		b.inductor(d.LIn, rfpassive.Series),
		g.inTee,
	}
	output := rfpassive.Chain{
		g.stab,
		g.outTee,
		b.inductor(d.LOut, rfpassive.Series),
		b.capacitor(d.COut, rfpassive.Shunt),
		g.dcBlock,
	}

	return &Amplifier{
		Dev:    &dev,
		Bias:   device.Bias{Vgs: d.Vgs, Vds: d.Vds},
		Input:  input,
		Output: output,
		Design: d,
	}, nil
}

// NoisyAt returns the complete amplifier as a noisy two-port at f, on a
// pooled workspace.
func (a *Amplifier) NoisyAt(f float64) (noise.TwoPort, error) {
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	if err := ws.bind(a).noisyAt(&ws.tp, f); err != nil {
		return noise.TwoPort{}, err
	}
	return ws.tp, nil
}

// SAt returns the amplifier S-parameters at f referenced to z0.
func (a *Amplifier) SAt(f, z0 float64) (twoport.Mat2, error) {
	tp, err := a.NoisyAt(f)
	if err != nil {
		return twoport.Mat2{}, err
	}
	return tp.S(z0)
}

// PointMetrics summarizes the amplifier at one frequency.
type PointMetrics struct {
	// Freq is the evaluation frequency in Hz.
	Freq float64
	// NFdB is the 50-ohm noise figure in dB.
	NFdB float64
	// FminDB is the minimum possible noise figure in dB at this frequency.
	FminDB float64
	// GTdB is the 50-ohm transducer gain in dB.
	GTdB float64
	// S11dB and S22dB are the port return losses in dB (negative good).
	S11dB, S22dB float64
	// K is the Rollet stability factor; Mu the mu source stability factor.
	K, Mu float64
}

// MetricsAt evaluates the amplifier at one frequency.
func (a *Amplifier) MetricsAt(f, z0 float64) (PointMetrics, error) {
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	return ws.bind(a).metricsAt(f, z0)
}

// pointMetricsOf reduces a noisy two-port at f to its metric summary.
func pointMetricsOf(tp *noise.TwoPort, f, z0 float64) (PointMetrics, error) {
	s, err := sOf(tp.A, f, z0)
	if err != nil {
		return PointMetrics{}, err
	}
	m := PointMetrics{
		Freq:  f,
		NFdB:  mathx.DB10(tp.FigureY(complex(1/z0, 0))),
		GTdB:  mathx.DB10(twoport.TransducerGain(s, 0, 0)),
		S11dB: db20Mag(s[0][0]),
		S22dB: db20Mag(s[1][1]),
		K:     twoport.RolletK(s),
		Mu:    twoport.MuSource(s),
	}
	if p, err := tp.NoiseParams(z0); err == nil {
		m.FminDB = p.FminDB()
	}
	return m, nil
}

// Sweep evaluates the amplifier over a frequency list.
func (a *Amplifier) Sweep(freqs []float64, z0 float64) ([]PointMetrics, error) {
	out := make([]PointMetrics, len(freqs))
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	if err := a.MetricsBandInto(ws, out, freqs, z0); err != nil {
		return nil, err
	}
	return out, nil
}

// GroupDelay returns the transmission group delay -d(phase S21)/d(omega) in
// seconds at f, by central difference with relative step rel (1e-4 when
// zero). GNSS receivers are sensitive to group-delay ripple across the
// signal bandwidth, so the verification sweep reports it.
func (a *Amplifier) GroupDelay(f, z0, rel float64) (float64, error) {
	if rel <= 0 {
		rel = 1e-4
	}
	df := f * rel
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	sLo, err := ws.bind(a).sAt(f-df, z0)
	if err != nil {
		return 0, err
	}
	sHi, err := ws.sAt(f+df, z0)
	if err != nil {
		return 0, err
	}
	// Unwrapped phase difference via the quotient avoids 2*pi ambiguities
	// for small steps.
	dphi := cmplx.Phase(sHi[1][0] / sLo[1][0])
	return -dphi / (2 * math.Pi * 2 * df), nil
}

// Network renders the amplifier S-parameters over freqs as a Network for
// Touchstone export or VNA comparison.
func (a *Amplifier) Network(freqs []float64, z0 float64) (*twoport.Network, error) {
	mats := make([]twoport.Mat2, len(freqs))
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	ws.bind(a)
	for i, f := range freqs {
		s, err := ws.sAt(f, z0)
		if err != nil {
			return nil, err
		}
		mats[i] = s
	}
	return twoport.NewNetwork(z0, freqs, mats)
}

// Ids returns the drain bias current of the amplifier.
func (a *Amplifier) Ids() float64 { return a.Dev.Ids(a.Bias) }

// PowerDissipation returns the DC power drawn from the drain supply in
// watts.
func (a *Amplifier) PowerDissipation() float64 {
	return a.Ids() * a.Bias.Vds
}

func db20Mag(v complex128) float64 {
	m := math.Hypot(real(v), imag(v))
	if m <= 0 {
		return math.Inf(-1)
	}
	return mathx.DB20(m)
}

package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"gnsslna/internal/mathx"
	"gnsslna/internal/optim"
	"gnsslna/internal/resilience"
	"gnsslna/internal/units"
)

// Spec captures the design requirements the goal attainment drives toward.
type Spec struct {
	// FLow and FHigh bound the operating band in Hz.
	FLow, FHigh float64
	// NPoints is the number of in-band evaluation frequencies (default 11).
	NPoints int
	// NFMaxDB is the worst-case in-band noise-figure goal in dB.
	NFMaxDB float64
	// GTMinDB is the minimum in-band transducer gain goal in dB.
	GTMinDB float64
	// S11MaxDB and S22MaxDB are the worst-case return-loss goals in dB.
	S11MaxDB, S22MaxDB float64
	// StabLow and StabHigh bound the out-of-band stability scan in Hz.
	StabLow, StabHigh float64
	// PdcMaxW is the DC power budget goal in watts (0 disables the goal).
	PdcMaxW float64
}

// DefaultSpec returns the multi-constellation requirement set: all GNSS
// bands, sub-0.9 dB noise, at least 14 dB gain, 10 dB return losses,
// unconditional stability from 100 MHz to 6 GHz.
func DefaultSpec() Spec {
	lo, hi := DesignBand()
	return Spec{
		FLow: lo, FHigh: hi, NPoints: 11,
		NFMaxDB: 0.9, GTMinDB: 14, S11MaxDB: -10, S22MaxDB: -10,
		StabLow: 0.2e9, StabHigh: 6e9,
		PdcMaxW: 0.25,
	}
}

func (s Spec) points() []float64 {
	n := s.NPoints
	if n < 2 {
		n = 11
	}
	return mathx.Linspace(s.FLow, s.FHigh, n)
}

func (s Spec) stabPoints() []float64 {
	if s.StabHigh <= s.StabLow {
		return nil
	}
	return mathx.Logspace(s.StabLow, s.StabHigh, 9)
}

// Evaluation aggregates the band-level objectives of one design.
type Evaluation struct {
	// Design echoes the evaluated parameters.
	Design Design
	// Points holds the per-frequency metrics.
	Points []PointMetrics
	// WorstNFdB, MinGTdB, WorstS11dB, WorstS22dB are the in-band extremes.
	WorstNFdB, MinGTdB, WorstS11dB, WorstS22dB float64
	// StabMargin is min(mu) - 1 over the wide scan (positive = stable).
	StabMargin float64
	// IdsA is the bias current in amperes; PdcW the DC power in watts.
	IdsA, PdcW float64
}

// Objectives returns the minimization vector used by the multi-objective
// solvers: [worst NF, -min GT, worst S11, worst S22, -stability margin,
// Pdc].
func (e Evaluation) Objectives() []float64 {
	return []float64{
		e.WorstNFdB,
		-e.MinGTdB,
		e.WorstS11dB,
		e.WorstS22dB,
		-e.StabMargin,
		e.PdcW,
	}
}

// ObjectiveNames aligns with Objectives.
func ObjectiveNames() []string {
	return []string{"NFmax[dB]", "-GTmin[dB]", "S11max[dB]", "S22max[dB]", "-stab", "Pdc[W]"}
}

// Designer runs the paper's design flow on a device.
type Designer struct {
	// Builder materializes candidate amplifiers.
	Builder *Builder
	// Spec holds the requirements.
	Spec Spec
	// Z0 is the system impedance (default 50).
	Z0 float64
	// Workers bounds the goroutines used to fan out the independent band
	// evaluations of the corner, sensitivity and yield sweeps, and is
	// forwarded to the optimizer when Optimize's options leave it unset
	// (<= 1: serial, today's exact behavior). Evaluate itself is safe for
	// concurrent calls.
	Workers int

	// Memo, when non-nil, caches successful Evaluate results keyed by the
	// full evaluation context (spec, substrate, builder, device content) and
	// the exact design vector. NewDesigner attaches the process-wide
	// DefaultEvalMemo so all designers in the process — including every
	// serve worker — share hits. Evaluations are deterministic, so a hit is
	// bit-identical to recomputation; the eval tally still counts every
	// call.
	Memo *EvalMemo

	// evals is atomic: Optimize can evaluate candidates from concurrent
	// worker goroutines while keeping the reported tally exact.
	evals atomic.Int64

	// freqs caches the spec-derived sweep grids so each of the thousands of
	// candidate evaluations doesn't rebuild them.
	freqs atomic.Pointer[specFreqs]

	// ctxKey caches the memo context digest against a comparable snapshot
	// of the evaluation context (see evalmemo.go).
	ctxKey atomic.Pointer[ctxDigest]
}

// specFreqs is the memoized frequency grid keyed by the (comparable) spec
// value it was derived from.
type specFreqs struct {
	spec Spec
	pts  []float64
	stab []float64
}

// sweepGrids returns the in-band and stability frequency lists for the
// current spec, memoized until the spec changes. The returned slices alias
// the memoized arrays shared by every concurrent Evaluate call: this
// internal path is zero-copy and strictly read-only. Code outside the
// evaluation hot path — anything that hands grids to goroutines it does not
// control, like the campaign engine — must use SweepGrids, which copies.
func (d *Designer) sweepGrids() (pts, stab []float64) {
	if g := d.freqs.Load(); g != nil && g.spec == d.Spec {
		return g.pts, g.stab
	}
	g := &specFreqs{spec: d.Spec, pts: d.Spec.points(), stab: d.Spec.stabPoints()}
	d.freqs.Store(g)
	return g.pts, g.stab
}

// SweepGrids returns defensive copies of the in-band and stability
// frequency grids derived from the current spec. Unlike the internal
// sweepGrids, the returned slices are owned by the caller: mutating them
// cannot corrupt the memoized grids that concurrent evaluations read.
func (d *Designer) SweepGrids() (pts, stab []float64) {
	p, s := d.sweepGrids()
	pts = append([]float64(nil), p...)
	stab = append([]float64(nil), s...)
	return pts, stab
}

// NewDesigner wires a designer with the default spec and the process-wide
// shared evaluation memo.
func NewDesigner(b *Builder) *Designer {
	return &Designer{Builder: b, Spec: DefaultSpec(), Z0: 50, Memo: DefaultEvalMemo()}
}

// EvalCount reports the number of Evaluate calls charged so far. The tally
// is charged before the memo lookup, so cached and recomputed evaluations
// journal identically — a memo hit is indistinguishable in the eval count.
func (d *Designer) EvalCount() int64 { return d.evals.Load() }

func (d *Designer) z0() float64 {
	if d.Z0 <= 0 {
		return 50
	}
	return d.Z0
}

// Evaluate computes the band evaluation of one design. It is safe for
// concurrent calls (the eval tally is atomic and the builder caches are
// race-free), which is what lets the optimizers and sweeps fan candidate
// evaluations across workers.
func (d *Designer) Evaluate(x Design) (Evaluation, error) {
	// The tally charges every call — before the memo lookup — so eval
	// counts (and the journal records derived from them) are identical
	// whether a design hits the memo or is recomputed.
	d.evals.Add(1)
	var key memoKey
	useMemo := false
	// x == x rejects NaN-bearing designs, which could never hit (NaN keys
	// compare unequal to themselves) and would only pollute the LRU.
	if d.Memo != nil && x == x {
		if h, ok := d.ctxHash(); ok {
			key = memoKey{ctx: h, design: x}
			useMemo = true
			if ev, ok := d.Memo.lookup(key); ok {
				return ev, nil
			}
		}
	}
	amp, err := d.Builder.Build(x)
	if err != nil {
		return Evaluation{}, err
	}
	ev, err := d.evaluateAmp(amp, x)
	if err == nil && useMemo {
		d.Memo.store(key, ev)
	}
	return ev, err
}

// evaluateAmp aggregates the band objectives of an already-built amplifier.
func (d *Designer) evaluateAmp(amp *Amplifier, x Design) (Evaluation, error) {
	grid, stabGrid := d.sweepGrids()
	pts, err := amp.Sweep(grid, d.z0())
	if err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{
		Design:     x,
		Points:     pts,
		WorstNFdB:  math.Inf(-1),
		MinGTdB:    math.Inf(1),
		WorstS11dB: math.Inf(-1),
		WorstS22dB: math.Inf(-1),
		StabMargin: math.Inf(1),
		IdsA:       amp.Ids(),
		PdcW:       amp.PowerDissipation(),
	}
	for _, p := range pts {
		ev.WorstNFdB = math.Max(ev.WorstNFdB, p.NFdB)
		ev.MinGTdB = math.Min(ev.MinGTdB, p.GTdB)
		ev.WorstS11dB = math.Max(ev.WorstS11dB, p.S11dB)
		ev.WorstS22dB = math.Max(ev.WorstS22dB, p.S22dB)
		ev.StabMargin = math.Min(ev.StabMargin, p.Mu-1)
	}
	if len(stabGrid) > 0 {
		// The wide stability scan only consumes Mu, which depends on the
		// chain matrices alone: the A-only band path skips all the
		// noise-correlation work. Its values equal (==) the kernel's Mu.
		mus := make([]float64, len(stabGrid))
		ws := getBandWorkspace()
		err := amp.muBandInto(ws, mus, stabGrid, d.z0())
		putBandWorkspace(ws)
		if err != nil {
			return Evaluation{}, err
		}
		for _, mu := range mus {
			ev.StabMargin = math.Min(ev.StabMargin, mu-1)
		}
	}
	return ev, nil
}

// penalizeInstability returns the objective vector with a steep uniform
// penalty when the design is potentially unstable: stability is a hard
// constraint, and adding the violation to every objective keeps the
// goal-attainment surface pointing back into the feasible region
// regardless of the adaptive weight normalization.
func penalizeInstability(ev Evaluation) []float64 {
	obj := ev.Objectives()
	if ev.StabMargin <= 0 {
		pen := 50 * (0.02 - ev.StabMargin)
		for i := range obj {
			obj[i] += pen
		}
	}
	return obj
}

// goals renders the spec as goal-attainment goals matching Objectives().
func (d *Designer) goals() []optim.Goal {
	pdc := d.Spec.PdcMaxW
	if pdc <= 0 {
		pdc = 10 // effectively unconstrained
	}
	return []optim.Goal{
		{Name: "NFmax", Target: d.Spec.NFMaxDB, Weight: 0.5},
		{Name: "GTmin", Target: -d.Spec.GTMinDB, Weight: 1},
		{Name: "S11max", Target: d.Spec.S11MaxDB, Weight: 2},
		{Name: "S22max", Target: d.Spec.S22MaxDB, Weight: 2},
		{Name: "stability", Target: -0.02, Weight: 0.5},
		{Name: "Pdc", Target: pdc, Weight: 0.2},
	}
}

// DesignResult reports a finished optimization.
type DesignResult struct {
	// Design is the continuous optimum.
	Design Design
	// Snapped is the optimum with L/C values snapped to the E24 series.
	Snapped Design
	// Eval and SnappedEval grade both.
	Eval, SnappedEval Evaluation
	// Gamma is the attainment factor (<= 0: all goals met).
	Gamma float64
	// Evals counts band evaluations.
	Evals int
}

// Optimize selects the operating point and passive elements with the
// improved goal-attainment method (the paper's step 4). The objective is
// quarantined: a panicking or non-finite band evaluation scores the same
// uniform penalty as an unbuildable design instead of poisoning the
// search, and a long streak of such faults trips the breaker of
// opts.Control (when set). A stopped run (cancellation, deadline, budget
// or breaker) returns the best design found so far alongside the wrapped
// *resilience.Stopped error.
func (d *Designer) Optimize(opts *optim.AttainOptions) (DesignResult, error) {
	d.evals.Store(0)
	lo, hi := DesignBounds()
	raw := func(x []float64) []float64 {
		ev, err := d.Evaluate(DesignFromVector(x))
		if err != nil {
			// Penalize unusable regions uniformly.
			return []float64{99, 99, 99, 99, 99, 99}
		}
		return penalizeInstability(ev)
	}
	var o optim.AttainOptions
	if opts != nil {
		o = *opts
	}
	if o.Workers <= 1 && d.Workers > 1 {
		o.Workers = d.Workers
		opts = &o
	}
	safe := resilience.NewSafeVector(raw, 6, &resilience.SafeOptions{
		Penalty: 99, BreakerK: 64,
		Control: o.Control, Observer: o.Observer, Scope: "core.design",
	})
	res, err := optim.GoalAttainImproved(safe.Objective(), d.goals(), lo, hi, opts)
	var stopErr error
	if err != nil {
		if _, stopped := resilience.AsStopped(err); !stopped || len(res.X) == 0 {
			return DesignResult{}, fmt.Errorf("core: optimize: %w", err)
		}
		stopErr = fmt.Errorf("core: optimize: %w", err)
	}
	best := DesignFromVector(res.X)
	ev, err := d.evaluateGuarded(best)
	if err != nil {
		if stopErr != nil {
			// The search was stopped and even the best point cannot be
			// graded (e.g. the fault that tripped the breaker persists):
			// return the ungraded design with the stop reason.
			return DesignResult{Design: best, Gamma: res.Gamma, Evals: int(d.evals.Load())}, stopErr
		}
		return DesignResult{}, err
	}
	snapped := d.SnapToE24(best)
	sev, err := d.evaluateGuarded(snapped)
	if err != nil {
		if stopErr != nil {
			return DesignResult{Design: best, Eval: ev, Gamma: res.Gamma, Evals: int(d.evals.Load())}, stopErr
		}
		return DesignResult{}, err
	}
	return DesignResult{
		Design:      best,
		Snapped:     snapped,
		Eval:        ev,
		SnappedEval: sev,
		Gamma:       res.Gamma,
		Evals:       int(d.evals.Load()),
	}, stopErr
}

// evaluateGuarded is Evaluate with panic containment, for grading points
// that may sit in a faulty region of a quarantined objective.
func (d *Designer) evaluateGuarded(x Design) (ev Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: evaluation panicked: %v", r)
		}
	}()
	return d.Evaluate(x)
}

// SnapToE24 rounds the chip-element values to the E24 preferred series (the
// degeneration inductance stays continuous: it is realized as a microstrip
// stub cut to length).
func (d *Designer) SnapToE24(x Design) Design {
	x.LIn = units.SnapE24(x.LIn)
	x.LOut = units.SnapE24(x.LOut)
	x.COut = units.SnapE24(x.COut)
	return x
}

package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"gnsslna/internal/mathx"
	"gnsslna/internal/obs"
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
	// evaluations of the sensitivity and yield sweeps (<= 1: serial).
	// Optimize takes its worker count from its options alone. Evaluate
	// itself is safe for concurrent calls.
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
	return d.evaluate(x, nil)
}

// evaluate is Evaluate for an optional goal-attainment trial t (see
// evaluateAmp). Only evaluations that ran to the end go into the memo.
func (d *Designer) evaluate(x Design, t *trial) (Evaluation, error) {
	// The tally charges every call — before the memo lookup — so eval
	// counts (and the journal records derived from them) are identical
	// whether a design hits the memo, is recomputed or stops early.
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
	ev, err := d.evaluateAmp(amp, x, t)
	if err == nil && useMemo && (t == nil || !t.stopped) {
		d.Memo.store(key, ev)
	}
	return ev, err
}

// unusable is the uniform objective vector of a design that cannot be
// graded: unbuildable, failing at some frequency, or quarantined by
// Optimize's fault gate, whose penalty is read from it. A flow with fewer
// objectives uses its prefix. It is only read.
var unusable = [6]float64{99, 99, 99, 99, 99, 99}

// trial is a bounded evaluation: one goal-attainment DE trial. exceeds is
// the optimizer's stop predicate (nil: never stop) and obj receives the
// penalized objective vector of the points graded so far; its length names
// the flow (see penalize). On return, stopped reports whether the
// evaluation stopped early, with obj holding the vector it stopped on, and
// computed counts the grid points it graded.
type trial struct {
	exceeds  func(lower []float64) bool
	obj      []float64
	stopped  bool
	computed int
}

// stop counts n more graded points, writes the penalized partial vector of
// ev into t.obj and reports whether the evaluation may stop. Every
// objective is a running worst case that later points only raise, and the
// instability penalty only grows as the margin falls, so the partial
// vector is a componentwise lower bound of the full one; but a later
// failure would replace the full vector by the unusable one, so exceeds
// must hold for that too.
func (t *trial) stop(ev *Evaluation, n int) bool {
	if t == nil {
		return false
	}
	t.computed += n
	if t.exceeds == nil {
		return false
	}
	t.penalize(ev)
	t.stopped = t.exceeds(t.obj) && t.exceeds(unusable[:len(t.obj)])
	return t.stopped
}

// penalize writes the flow's penalized objective vector of ev into t.obj:
// the six objectives of Objectives, or the two-stage cascade's four, worst
// NF, -min GT, -stability margin and Pdc (see penalizeInto).
func (t *trial) penalize(ev *Evaluation) {
	if len(t.obj) == len(unusable) {
		penalizeInto(t.obj, ev)
		return
	}
	var v [len(unusable)]float64
	penalizeInto(v[:], ev)
	t.obj[0], t.obj[1], t.obj[2], t.obj[3] = v[0], v[1], v[4], v[5]
}

// vector returns the objective vector of a graded trial: the vector it
// stopped on, the penalized vector of the full evaluation ev or, for a
// design that cannot be graded (err != nil), the unusable vector.
func (t *trial) vector(ev *Evaluation, err error) []float64 {
	switch {
	case err != nil:
		copy(t.obj, unusable[:])
	case !t.stopped:
		t.penalize(ev)
	}
	return t.obj
}

// edgeFirst returns the in-band point graded k-th of n: 0, n-1, 1, n-2, …
// The band edges are where the worst cases usually sit, so a losing trial
// shows it after the first points.
func edgeFirst(k, n int) int {
	if k%2 == 0 {
		return k / 2
	}
	return n - 1 - k/2
}

// evaluateAmp aggregates the band objectives of an already-built amplifier
// through the objective loop (grade). A trial that stops leaves the
// Evaluation without Points.
func (d *Designer) evaluateAmp(amp *Amplifier, x Design, t *trial) (Evaluation, error) {
	grid, stabGrid := d.sweepGrids()
	ws := getBandWorkspace()
	defer putBandWorkspace(ws)
	ws.pts = slices.Grow(ws.pts[:0], len(grid))[:len(grid)]
	ws.bind(amp)
	ev, err := grade(ws.metricsAt, ws.muAt, grid, stabGrid, d.z0(),
		Evaluation{Design: x, IdsA: amp.Ids(), PdcW: amp.PowerDissipation()}, ws.pts, t)
	if err == nil && (t == nil || !t.stopped) {
		ev.Points = append([]PointMetrics(nil), ws.pts...)
	}
	return ev, err
}

// grade is the objective loop of every design flow. It grades the in-band
// points one at a time through metricsAt, band edges first, keeping each
// in pts unless pts is nil, then the stability scan through muAt, and
// folds them into the in-band extremes and the stability margin of ev. Max
// and min do not depend on the order, so neither does any value. For a
// trial t it checks after each in-band point and after the scan whether
// the trial may stop (trial.stop).
func grade(metricsAt func(f, z0 float64) (PointMetrics, error), muAt func(f, z0 float64) (float64, error),
	grid, stabGrid []float64, z0 float64, ev Evaluation, pts []PointMetrics, t *trial) (Evaluation, error) {
	ev.WorstNFdB, ev.MinGTdB = math.Inf(-1), math.Inf(1)
	ev.WorstS11dB, ev.WorstS22dB = math.Inf(-1), math.Inf(-1)
	ev.StabMargin = math.Inf(1)
	for k := range grid {
		i := edgeFirst(k, len(grid))
		p, err := metricsAt(grid[i], z0)
		if err != nil {
			return Evaluation{}, err
		}
		if pts != nil {
			pts[i] = p
		}
		ev.WorstNFdB = math.Max(ev.WorstNFdB, p.NFdB)
		ev.MinGTdB = math.Min(ev.MinGTdB, p.GTdB)
		ev.WorstS11dB = math.Max(ev.WorstS11dB, p.S11dB)
		ev.WorstS22dB = math.Max(ev.WorstS22dB, p.S22dB)
		ev.StabMargin = math.Min(ev.StabMargin, p.Mu-1)
		if t.stop(&ev, 1) {
			return ev, nil
		}
	}
	for _, f := range stabGrid {
		mu, err := muAt(f, z0)
		if err != nil {
			return Evaluation{}, err
		}
		ev.StabMargin = math.Min(ev.StabMargin, mu-1)
	}
	t.stop(&ev, len(stabGrid))
	return ev, nil
}

// penalizeInto writes the objective vector of ev into dst with a steep
// uniform penalty when the design is potentially unstable: stability is a
// hard constraint, and adding the violation to every objective keeps the
// goal-attainment surface pointing back into the feasible region
// regardless of the adaptive weight normalization. dst has the length of
// Objectives().
func penalizeInto(dst []float64, ev *Evaluation) {
	dst[0] = ev.WorstNFdB
	dst[1] = -ev.MinGTdB
	dst[2] = ev.WorstS11dB
	dst[3] = ev.WorstS22dB
	dst[4] = -ev.StabMargin
	dst[5] = ev.PdcW
	if ev.StabMargin <= 0 {
		pen := 50 * (0.02 - ev.StabMargin)
		for i := range dst {
			dst[i] += pen
		}
	}
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
//
// The objective is bounded (optim.GoalAttainImprovedBounded): a DE trial
// stops grading once the points it has graded prove that it loses to its
// parent, which changes no result and no evaluation count. The breaker
// does not see a fault in work a stopped trial skipped. With an Observer,
// Optimize emits one KindSample under "core.design.computed": the share of
// in-band and stability points that the DE trials computed.
func (d *Designer) Optimize(opts *optim.AttainOptions) (DesignResult, error) {
	d.evals.Store(0)
	lo, hi := DesignBounds()
	grid, stabGrid := d.sweepGrids()
	points := len(grid) + len(stabGrid)
	var computed, full atomic.Int64
	raw := func(x []float64, exceeds func([]float64) bool) []float64 {
		t := trial{exceeds: exceeds, obj: make([]float64, len(unusable))}
		ev, err := d.evaluate(DesignFromVector(x), &t)
		if exceeds != nil {
			computed.Add(int64(t.computed))
			full.Add(int64(points))
		}
		return t.vector(&ev, err)
	}
	var o optim.AttainOptions
	if opts != nil {
		o = *opts
	}
	safe := resilience.NewSafeBoundedVector(raw, len(unusable), &resilience.SafeOptions{
		Penalty: unusable[0], BreakerK: 64,
		Control: o.Control, Observer: o.Observer, Scope: "core.design",
	})
	res, err := attainBounded(safe.BoundedObjective(), d.goals(), lo, hi, opts)
	if n := full.Load(); o.Observer != nil && n > 0 {
		o.Observer.Observe(obs.Event{Kind: obs.KindSample, Scope: "core.design.computed", Value: float64(computed.Load()) / float64(n)})
	}
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

// attainBounded runs the goal attainment of every design flow; tests wrap
// it to check every bounded call or to run the objective without its
// bound.
var attainBounded = optim.GoalAttainImprovedBounded

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

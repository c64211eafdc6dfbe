package optim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// VectorObjective maps a design vector to multiple objective values, all to
// be minimized.
type VectorObjective func(x []float64) []float64

// BoundedVectorObjective is a VectorObjective that may stop evaluating once
// its vector provably loses. exceeds(lower) reports whether every vector
// that is componentwise at least lower loses; it reads lower only during
// the call and allocates nothing. A nil exceeds never holds. exceeds is
// valid only until the objective returns: the solver reuses it for the
// next trial.
//
// Standing for a vector objective f, the objective must return exactly
// f(x), or stop early and return a vector v for which exceeds(v) holds.
// It may stop only once exceeds has held for a componentwise lower bound of
// every value f(x) could still take, so that f(x) provably loses too.
// Graded points that only ever raise a running worst case give such a
// bound cheaply: the vector of the points graded so far.
type BoundedVectorObjective func(x []float64, exceeds func(lower []float64) bool) []float64

// attainObjective is the vector objective of one goal-attainment run:
// plain f or bounded fb, the way counter holds a scalar objective.
type attainObjective struct {
	f  VectorObjective
	fb BoundedVectorObjective
}

// full returns the objective that evaluates x to the end.
func (a attainObjective) full() VectorObjective {
	if a.fb == nil {
		return a.f
	}
	fb := a.fb
	return func(x []float64) []float64 { return fb(x, nil) }
}

// ksMargin is the relative margin by which a lower bound's KS value must
// exceed a DE trial's bound before the trial stops (see stopAbove).
const ksMargin = 1e-9

// stopper holds the stop predicate of one DE trial at a time. Its method
// value exceeds is bound once, when the stopper is made, so a reused
// stopper hands each trial its predicate without allocating.
type stopper struct {
	ks      func([]float64) float64
	limit   float64
	exceeds func(lower []float64) bool
}

func newStopper(ks func([]float64) float64) *stopper {
	s := &stopper{ks: ks}
	s.exceeds = s.above
	return s
}

func (s *stopper) above(lower []float64) bool { return s.ks(lower) > s.limit }

// stopAbove returns the stop predicate of a DE trial bounded by its
// parent's value bound: it holds when the KS value ks(lower) exceeds bound
// by more than ksMargin*(1+|bound|). The KS envelope increases in every
// component in exact arithmetic, and its floating-point value strays from
// that by a few ulps of its largest term, far less than the margin; so
// when lower bounds the trial's vector componentwise, the trial's full
// value exceeds bound too and the trial loses. The predicate is nil, never
// holding, for a bound nothing exceeds: +Inf (the initial population) and
// NaN (a NaN parent). It stays valid until the next stopAbove on s.
func (s *stopper) stopAbove(bound float64) func(lower []float64) bool {
	if !(bound < math.Inf(1)) {
		return nil
	}
	s.limit = bound + ksMargin*(1+math.Abs(bound))
	return s.exceeds
}

// deTrials returns the objective of the improved method's DE stage: the KS
// value ks5 of obj's vector, each trial of a bounded obj stopped by its
// parent's KS value (see stopAbove) through a pooled stopper, so a trial
// allocates nothing beyond what obj does; a plain obj evaluates to the end
// without a predicate. It counts every call in evals and is safe for
// concurrent calls when obj is.
func deTrials(obj attainObjective, ks5 func([]float64) float64, evals *atomic.Int64) BoundedObjective {
	stoppers := sync.Pool{New: func() any { return newStopper(ks5) }}
	return func(x []float64, bound float64) float64 {
		evals.Add(1)
		if obj.fb == nil {
			return ks5(obj.f(x))
		}
		s := stoppers.Get().(*stopper)
		v := ks5(obj.fb(x, s.stopAbove(bound)))
		stoppers.Put(s)
		return v
	}
}

// Goal is one design goal for goal attainment: drive objective i to at most
// Target, with Weight expressing how much over/under-attainment is
// acceptable relative to the other goals (Gembicki's w_i).
type Goal struct {
	// Name labels the goal in reports.
	Name string
	// Target is the desired value g_i of the (minimized) objective.
	Target float64
	// Weight is the relative attainment weight w_i (> 0).
	Weight float64
}

// AttainResult reports a goal-attainment run.
type AttainResult struct {
	// X is the best design found.
	X []float64
	// Gamma is the attainment factor: gamma <= 0 means every goal was met.
	// The scalarization baseline (WeightedSum) has no attainment factor and
	// reports the NaN sentinel instead — check with math.IsNaN before
	// comparing, since NaN compares false against everything.
	Gamma float64
	// F holds the objective values at X.
	F []float64
	// Evals counts vector-objective evaluations.
	Evals int
}

// AttainOptions configures the goal-attainment solvers.
type AttainOptions struct {
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// GlobalEvals budgets the global (DE) phase (default 6000).
	GlobalEvals int
	// PolishEvals budgets each local polish (default 4000).
	PolishEvals int
	// Observer receives per-generation convergence events from the nested
	// global/polish stages (under Scope+".de" / Scope+".nm") and a final
	// done event whose Best is the attainment factor gamma. The solver's
	// own done event reports only the evaluations it performed directly
	// (scale probing, final evaluation); the nested stages report their
	// own totals, so summing done-event evals never double-counts
	// (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.attain"); the global and
	// polish stages emit under Scope+".de" and Scope+".nm".
	Scope string
	// Control is threaded through the nested global/polish stages, which
	// poll it once per generation. On a stop the solver evaluates and
	// returns its best-so-far design alongside the *resilience.Stopped
	// error (nil: never stops).
	Control *resilience.RunController
	// Restarts bounds the jittered multi-start restarts of the improved
	// method after a circuit-breaker stop (0: single attempt). Stops for
	// external reasons (cancellation, deadline, budget) never restart.
	Restarts int
	// Workers bounds the goroutines used to evaluate candidate batches in
	// the scale probe and the nested DE stage (<= 1: serial). Randomness
	// stays on the driver goroutine, so results are bit-identical for any
	// worker count; obj must be safe for concurrent calls when Workers > 1.
	Workers int
}

func (o *AttainOptions) defaults() AttainOptions {
	out := AttainOptions{Seed: 1, GlobalEvals: 6000, PolishEvals: 4000}
	if o != nil {
		if o.Seed != 0 {
			out.Seed = o.Seed
		}
		if o.GlobalEvals > 0 {
			out.GlobalEvals = o.GlobalEvals
		}
		if o.PolishEvals > 0 {
			out.PolishEvals = o.PolishEvals
		}
		if o.Restarts > 0 {
			out.Restarts = o.Restarts
		}
		if o.Workers > 1 {
			out.Workers = o.Workers
		}
		out.Observer, out.Scope, out.Control = o.Observer, o.Scope, o.Control
	}
	return out
}

// scopeOr resolves the event scope, falling back to def.
func (o AttainOptions) scopeOr(def string) string {
	if o.Scope != "" {
		return o.Scope
	}
	return def
}

func validateGoals(obj attainObjective, goals []Goal, lo, hi []float64) error {
	if (obj.f == nil && obj.fb == nil) || len(goals) == 0 || len(lo) == 0 || len(lo) != len(hi) {
		return ErrBadInput
	}
	for i, g := range goals {
		if g.Weight <= 0 {
			return fmt.Errorf("%w: goal %d (%s) has non-positive weight", ErrBadInput, i, g.Name)
		}
	}
	return nil
}

// gammaOf is the Gembicki attainment factor: max_i (f_i - T_i)/w_i.
func gammaOf(f []float64, goals []Goal) float64 {
	g := math.Inf(-1)
	for i := range goals {
		v := (f[i] - goals[i].Target) / goals[i].Weight
		if v > g {
			g = v
		}
	}
	return g
}

// GoalAttainStandard solves the multi-objective problem with the classical
// goal-attainment formulation: minimize the (non-smooth) attainment factor
// gamma(x) = max_i (f_i(x)-T_i)/w_i directly with differential evolution
// followed by a Nelder-Mead polish. This is the baseline the paper
// improves upon.
func GoalAttainStandard(obj VectorObjective, goals []Goal, lo, hi []float64, opts *AttainOptions) (AttainResult, error) {
	var res AttainResult
	var err error
	obs.ProfDo("optim", "attain-std", func(ctx context.Context) {
		res, err = goalAttainStandard(ctx, obj, goals, lo, hi, opts)
	})
	return res, err
}

func goalAttainStandard(ctx context.Context, obj VectorObjective, goals []Goal, lo, hi []float64, opts *AttainOptions) (AttainResult, error) {
	if err := validateGoals(attainObjective{f: obj}, goals, lo, hi); err != nil {
		return AttainResult{}, err
	}
	o := opts.defaults()
	em := newEmitter(o.Observer, o.Scope, scopeAttain)
	em.ctx = ctx
	// The scalarized objective is handed to DE, whose workers may call it
	// concurrently — the tally must be atomic to stay exact.
	var evals atomic.Int64
	scalar := func(x []float64) float64 {
		evals.Add(1)
		return gammaOf(obj(x), goals)
	}
	x, nested, err := dePolish(scalar, lo, hi, o, em.observer(), em.scope)
	if x == nil {
		return AttainResult{}, err
	}
	return attainFinish(obj, goals, lo, hi, o, &em, x, int(evals.Load()), nested, err)
}

// dePop sizes the DE stage of a goal-attainment run: ten members per
// dimension (at least 20), for as many generations as globalEvals buys (at
// least one).
func dePop(dim, globalEvals int) (pop, gens int) {
	pop = max(10*dim, 20)
	return pop, max(globalEvals/pop, 1)
}

// dePolish minimizes scalar with a DE stage sized by dePop and a
// Nelder-Mead polish from the DE's best, the two stages emitting through
// observer under scope+".de" and scope+".nm". nested counts the
// evaluations the stages report in their own done events. A stop that
// leaves a usable point returns that point with the stop error; any other
// error returns a nil point.
func dePolish(scalar Objective, lo, hi []float64, o AttainOptions, observer obs.Observer, scope string) (x []float64, nested int, err error) {
	pop, gens := dePop(len(lo), o.GlobalEvals)
	de, err := DifferentialEvolution(scalar, lo, hi, &DEOptions{
		Pop: pop, Generations: gens, Seed: o.Seed, Workers: o.Workers,
		Observer: observer, Scope: scope + ".de", Control: o.Control,
	})
	x, nested = de.X, de.Evals
	if err == nil {
		nm, nmErr := NelderMead(scalar, de.X, &NMOptions{
			MaxEvals: o.PolishEvals, Scale: 0.02,
			Observer: observer, Scope: scope + ".nm", Control: o.Control,
		})
		x, nested, err = nm.X, nested+nm.Evals, nmErr
	}
	if err != nil {
		if _, ok := resilience.AsStopped(err); !ok || len(x) == 0 {
			return nil, nested, err
		}
	}
	return x, nested, err
}

// attainFinish clamps and evaluates the final (possibly best-so-far) design,
// closes the emitter with only the directly performed evaluations (the
// nested stages report their own totals), and forwards the stop error, if
// any, so callers receive a usable partial result alongside it.
func attainFinish(obj VectorObjective, goals []Goal, lo, hi []float64, o AttainOptions, em *emitter, xBest []float64, evals, nested int, stopErr error) (AttainResult, error) {
	x := clampBox(xBest, lo, hi)
	o.Control.AddEvals(1)
	f := obj(x)
	gamma := gammaOf(f, goals)
	em.done(evals+1-nested, gamma)
	return AttainResult{X: x, Gamma: gamma, F: f, Evals: evals + 1}, stopErr
}

// ImprovedVariant switches off individual ingredients of the improved
// goal-attainment method for the ablation experiment.
type ImprovedVariant struct {
	// DisableNormalization skips the adaptive goal-range rescaling.
	DisableNormalization bool
	// DisableKS replaces the Kreisselmeier-Steinhauser envelope with the
	// raw non-smooth max in the polish stages.
	DisableKS bool
	// DisableSeeding skips the DE global stage (polish from a random
	// point).
	DisableSeeding bool
}

// GoalAttainImproved is the paper's improved goal-attainment method. Three
// modifications over the standard formulation:
//
//  1. Adaptive goal normalization: the weights are rescaled by the objective
//     ranges observed in the global population, so goals expressed in
//     different units (dB of noise vs dB of gain) attain at comparable
//     rates regardless of the caller's initial weight guess.
//  2. Kreisselmeier-Steinhauser smoothing: the non-smooth max() is replaced
//     by the KS envelope (1/rho) ln sum exp(rho z_i) with an increasing rho
//     schedule; each stage is warm-started from the previous solution, so
//     the local searches operate on a differentiable surrogate that
//     converges to the true minimax.
//  3. Hybrid seeding: a short DE run on the smoothed objective seeds the
//     polish stages, combining global reach with fast local convergence.
func GoalAttainImproved(obj VectorObjective, goals []Goal, lo, hi []float64, opts *AttainOptions) (AttainResult, error) {
	return GoalAttainImprovedVariant(obj, goals, lo, hi, opts, ImprovedVariant{})
}

// GoalAttainImprovedBounded is GoalAttainImproved for a bounded vector
// objective. The DE stage hands each trial a predicate that holds when the
// KS value of a lower bound exceeds the parent's value by more than a
// rounding margin (see stopAbove); a trial that stops early therefore
// loses, as it would have at full cost, and every Result, evaluation count
// and optimizer record is the same as GoalAttainImproved on the full
// objective. The scale probe and the polish stages evaluate every call to
// the end.
func GoalAttainImprovedBounded(obj BoundedVectorObjective, goals []Goal, lo, hi []float64, opts *AttainOptions) (AttainResult, error) {
	return goalAttainImproved(attainObjective{fb: obj}, goals, lo, hi, opts, ImprovedVariant{})
}

// GoalAttainImprovedVariant runs the improved method with selected
// ingredients disabled, for the ablation study.
func GoalAttainImprovedVariant(obj VectorObjective, goals []Goal, lo, hi []float64, opts *AttainOptions, variant ImprovedVariant) (AttainResult, error) {
	return goalAttainImproved(attainObjective{f: obj}, goals, lo, hi, opts, variant)
}

// goalAttainImproved validates the problem and runs the improved method,
// with jittered restarts when configured.
func goalAttainImproved(obj attainObjective, goals []Goal, lo, hi []float64, opts *AttainOptions, variant ImprovedVariant) (AttainResult, error) {
	if err := validateGoals(obj, goals, lo, hi); err != nil {
		return AttainResult{}, err
	}
	o := opts.defaults()
	if o.Restarts <= 0 {
		return goalAttainOnce(obj, goals, lo, hi, o, variant, o.Seed)
	}
	// Multi-start: rerun with jittered seeds when the breaker cuts an
	// attempt short, keeping the best attempt and the summed eval count.
	var best AttainResult
	haveBest := false
	total := 0
	policy := resilience.RestartPolicy{
		Seed: o.Seed, MaxRestarts: o.Restarts, Control: o.Control,
		Observer: o.Observer, Scope: o.scopeOr(scopeAttain) + ".restart",
	}
	_, _, err := policy.Run(func(seed int64) (float64, error) {
		r, aerr := goalAttainOnce(obj, goals, lo, hi, o, variant, seed)
		total += r.Evals
		if len(r.X) > 0 && (!haveBest || r.Gamma < best.Gamma) {
			best, haveBest = r, true
		}
		if len(r.X) == 0 {
			return math.Inf(1), aerr
		}
		return r.Gamma, aerr
	})
	best.Evals = total
	return best, err
}

// goalAttainOnce is one attempt of the improved goal-attainment method with
// the given seed.
func goalAttainOnce(obj attainObjective, goals []Goal, lo, hi []float64, o AttainOptions, variant ImprovedVariant, seed int64) (AttainResult, error) {
	var res AttainResult
	var err error
	obs.ProfDo("optim", "attain", func(ctx context.Context) {
		res, err = attainOnce(ctx, obj, goals, lo, hi, o, variant, seed)
	})
	return res, err
}

// attainOnce is goalAttainOnce's body, running under the attain pprof labels.
func attainOnce(ctx context.Context, obj attainObjective, goals []Goal, lo, hi []float64, o AttainOptions, variant ImprovedVariant, seed int64) (AttainResult, error) {
	o.Seed = seed
	em := newEmitter(o.Observer, o.Scope, scopeAttain)
	em.ctx = ctx
	full := obj.full()
	// The smoothed objectives are handed to DE, whose workers may call them
	// concurrently — the tally must be atomic to stay exact.
	var evals atomic.Int64
	nested := 0 // evals reported by nested stages' own done events
	pool := NewEvalPool(o.Workers)

	// Stage 0: probe the box to learn objective scales. All probe points
	// are drawn first (keeping the RNG stream on the driver), then the
	// batch is evaluated through the pool and the spans are scanned in
	// index order — bit-identical for any worker count.
	scaled := make([]Goal, len(goals))
	copy(scaled, goals)
	if !variant.DisableNormalization {
		probePop := 4 * len(lo)
		if probePop < 16 {
			probePop = 16
		}
		rngSpan := make([][2]float64, len(goals))
		for i := range rngSpan {
			rngSpan[i] = [2]float64{math.Inf(1), math.Inf(-1)}
		}
		rng := newRand(o.Seed)
		px := make([][]float64, probePop)
		pf := make([][]float64, probePop)
		for p := range px {
			x := make([]float64, len(lo))
			for j := range x {
				x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			px[p] = x
		}
		// Probe evaluations are direct (not routed through a nested
		// solver's counter), so account them here, on the driver.
		o.Control.AddEvals(probePop)
		evals.Add(int64(probePop))
		pool.mapVector(full, px, pf, em.batch())
		for _, f := range pf {
			for i, v := range f {
				if v < rngSpan[i][0] {
					rngSpan[i][0] = v
				}
				if v > rngSpan[i][1] {
					rngSpan[i][1] = v
				}
			}
		}
		for i := range scaled {
			span := rngSpan[i][1] - rngSpan[i][0]
			if span <= 0 || math.IsInf(span, 0) || math.IsNaN(span) {
				span = 1
			}
			// Blend the caller's weight with the observed span.
			scaled[i].Weight = goals[i].Weight * span
		}
	}

	// ksOf is the KS envelope of f with max-shift for numerical stability
	// (the raw max when KS is disabled). Two passes over f avoid a scratch
	// slice, which also keeps it safe for concurrent workers.
	ksOf := func(f []float64, rho float64) float64 {
		zmax := math.Inf(-1)
		for i := range f {
			if z := (f[i] - scaled[i].Target) / scaled[i].Weight; z > zmax {
				zmax = z
			}
		}
		if variant.DisableKS {
			return zmax
		}
		var s float64
		for i := range f {
			z := (f[i] - scaled[i].Target) / scaled[i].Weight
			s += math.Exp(rho * (z - zmax))
		}
		return zmax + math.Log(s)/rho
	}
	ks := func(rho float64) Objective {
		return func(x []float64) float64 {
			evals.Add(1)
			return ksOf(full(x), rho)
		}
	}

	// Stage 1: global DE on a mildly smoothed surface.
	var x []float64
	if variant.DisableSeeding {
		rng := newRand(o.Seed)
		x = make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
	} else {
		pop, gens := dePop(len(lo), o.GlobalEvals)
		ks5 := func(f []float64) float64 { return ksOf(f, 5) }
		de, err := DifferentialEvolutionBounded(deTrials(obj, ks5, &evals), lo, hi, &DEOptions{
			Pop: pop, Generations: gens, Seed: o.Seed, Workers: o.Workers,
			Observer: em.observer(), Scope: em.scope + ".de", Control: o.Control,
		})
		nested += de.Evals
		if err != nil {
			if _, ok := resilience.AsStopped(err); ok && len(de.X) > 0 {
				return attainFinish(full, goals, lo, hi, o, &em, de.X, int(evals.Load()), nested, err)
			}
			return AttainResult{}, err
		}
		x = de.X
	}

	// Stage 2: rho continuation with warm-started Nelder-Mead polishes.
	budget := o.PolishEvals / 3
	if budget < 200 {
		budget = 200
	}
	var stopErr error
	for _, rho := range []float64{20, 100, 500} {
		nm, err := NelderMead(ks(rho), x, &NMOptions{
			MaxEvals: budget, Scale: 0.02,
			Observer: em.observer(), Scope: em.scope + ".nm", Control: o.Control,
		})
		nested += nm.Evals
		if err != nil {
			if _, ok := resilience.AsStopped(err); !ok {
				return AttainResult{}, err
			}
			stopErr = err
			if len(nm.X) > 0 {
				x = clampBox(nm.X, lo, hi)
			}
			break
		}
		x = clampBox(nm.X, lo, hi)
	}
	return attainFinish(full, goals, lo, hi, o, &em, x, int(evals.Load()), nested, stopErr)
}

// WeightedSum minimizes the scalarization sum_i w_i f_i(x) — the classical
// baseline that cannot reach concave regions of a Pareto front — with a DE
// global stage and a Nelder-Mead polish. The returned Gamma is the NaN
// sentinel (no attainment factor is defined for a scalarization); test it
// with math.IsNaN. A resilience stop returns the best-so-far design
// alongside the *resilience.Stopped error.
func WeightedSum(obj VectorObjective, weights []float64, lo, hi []float64, opts *AttainOptions) (AttainResult, error) {
	if obj == nil || len(weights) == 0 || len(lo) == 0 || len(lo) != len(hi) {
		return AttainResult{}, ErrBadInput
	}
	o := opts.defaults()
	var evals atomic.Int64
	scalar := func(x []float64) float64 {
		evals.Add(1)
		f := obj(x)
		var s float64
		for i, w := range weights {
			s += w * f[i]
		}
		return s
	}
	x, _, err := dePolish(scalar, lo, hi, o, o.Observer, o.scopeOr("optim.wsum"))
	if x == nil {
		return AttainResult{}, err
	}
	x = clampBox(x, lo, hi)
	o.Control.AddEvals(1)
	// Gamma is deliberately NaN: a scalarization has no attainment factor,
	// and the sentinel keeps the result shape uniform across the
	// multi-objective solvers. Callers must test it with math.IsNaN, never
	// with ==.
	return AttainResult{X: x, Gamma: math.NaN(), F: obj(x), Evals: int(evals.Load()) + 1}, err
}

func clampBox(x, lo, hi []float64) []float64 {
	out := append([]float64(nil), x...)
	for i := range out {
		if out[i] < lo[i] {
			out[i] = lo[i]
		}
		if out[i] > hi[i] {
			out[i] = hi[i]
		}
	}
	return out
}

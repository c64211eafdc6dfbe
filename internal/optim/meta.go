package optim

import (
	"context"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// DEOptions configures differential evolution.
type DEOptions struct {
	// Pop is the population size (default 15 * dim, min 20).
	Pop int
	// Generations caps the number of generations (default 300).
	Generations int
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// Workers bounds the goroutines used to evaluate each generation's trial
	// batch (<= 1: serial). All randomness stays on the driver goroutine and
	// results are consumed in index order, so the run is bit-identical for
	// any worker count; f must be safe for concurrent calls when Workers > 1.
	Workers int
	// Observer receives per-generation convergence events (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.de").
	Scope string
	// Control is polled once per generation; on a stop the run returns its
	// best member alongside the *resilience.Stopped error. A budget or
	// deadline can therefore overshoot by at most one generation of
	// evaluations (nil: never stops).
	Control *resilience.RunController
}

// DifferentialEvolution minimizes f over the box [lo, hi] with the
// rand/1/bin strategy. The update is generational (batch-synchronous): every
// trial is built from the parent population, the whole batch is evaluated —
// across Workers goroutines when configured — and acceptance runs in index
// order, so the trajectory is bit-identical for any worker count. It runs
// the DifferentialEvolutionBounded loop with an objective that ignores the
// bound.
func DifferentialEvolution(f Objective, lo, hi []float64, opts *DEOptions) (Result, error) {
	return profRun("de", func(ctx context.Context) (Result, error) {
		return differentialEvolution(ctx, &counter{f: f}, lo, hi, opts)
	})
}

// BoundedObjective is an objective that may stop evaluating once its value
// provably exceeds a bound. Standing for an objective f, it must return
// exactly f(x) whenever f(x) <= bound, and any value greater than bound
// otherwise (or f(x) itself, which is how a NaN f(x) comes back). So
// "value <= bound" holds exactly when "f(x) <= bound" does. A NaN bound,
// which a NaN parent hands its trial, never stops early: it returns f(x).
//
// A sum of non-negative terms gives this cheaply: floating-point addition
// of a non-negative term never decreases the partial sum, so once a partial
// value exceeds the bound the full value does too, and an evaluation that
// runs to the end returns the same float as f. Test the final formula
// itself on the partial sum; a NaN bound then fails every test.
type BoundedObjective func(x []float64, bound float64) float64

// DifferentialEvolutionBounded is DifferentialEvolution for a bounded
// objective. Each trial is evaluated with its parent's objective value as
// the bound, and the initial population with +Inf. A trial replaces its
// parent only when f(trial) <= f(parent), and the BoundedObjective contract
// returns the exact value in exactly that case; a trial that stops early
// loses, as it would have at full cost. Every accepted population, Result
// and evaluation count is therefore bit-identical to DifferentialEvolution
// on f. A trial that stops early still counts as one evaluation.
func DifferentialEvolutionBounded(f BoundedObjective, lo, hi []float64, opts *DEOptions) (Result, error) {
	return profRun("de", func(ctx context.Context) (Result, error) {
		return differentialEvolution(ctx, &counter{fb: f}, lo, hi, opts)
	})
}

// differentialEvolution runs the generation loop on c's objective: bounded
// when c.fb is set, plain otherwise.
func differentialEvolution(ctx context.Context, c *counter, lo, hi []float64, opts *DEOptions) (Result, error) {
	n := len(lo)
	if n == 0 || len(hi) != n {
		return Result{}, ErrBadInput
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Result{}, ErrBadInput
		}
	}
	pop := 15 * n
	if pop < 20 {
		pop = 20
	}
	const fw, cr = 0.7, 0.9 // differential weight, crossover probability
	gens, seed, workers := 300, int64(1), 1
	var observer obs.Observer
	var ctrl *resilience.RunController
	scope := ""
	if opts != nil {
		workers = opts.Workers
		if opts.Pop > 3 {
			pop = opts.Pop
		}
		if opts.Generations > 0 {
			gens = opts.Generations
		}
		if opts.Seed != 0 {
			seed = opts.Seed
		}
		observer, scope, ctrl = opts.Observer, opts.Scope, opts.Control
	}
	em := newEmitter(observer, scope, scopeDE)
	em.ctx = ctx
	rng := newRand(seed)
	c.ctrl, c.em = ctrl, &em
	pool := NewEvalPool(workers)

	xs := make([][]float64, pop)
	fs := make([]float64, pop)
	for i := range xs {
		xs[i] = make([]float64, n)
		for j := range xs[i] {
			xs[i][j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
	}
	c.evalBatch(pool, xs, nil, fs)
	best := 0
	for i := range fs {
		if fs[i] < fs[best] {
			best = i
		}
	}

	// One flat backing array holds every trial: the rows never alias and the
	// whole matrix is recycled across generations (nothing here is retained —
	// accepted trials are copied into xs).
	trials := make([][]float64, pop)
	tbuf := make([]float64, pop*n)
	for i := range trials {
		trials[i] = tbuf[i*n : (i+1)*n : (i+1)*n]
	}
	tfs := make([]float64, pop)
	for g := 0; g < gens; g++ {
		if err := ctrl.Check(); err != nil {
			em.done(c.n, fs[best])
			return Result{X: append([]float64(nil), xs[best]...), F: fs[best], Evals: c.n, Converged: false}, err
		}
		em.beginGen()
		for i := 0; i < pop; i++ {
			// Pick three distinct partners != i.
			var a, b, cc int
			for {
				a = rng.Intn(pop)
				if a != i {
					break
				}
			}
			for {
				b = rng.Intn(pop)
				if b != i && b != a {
					break
				}
			}
			for {
				cc = rng.Intn(pop)
				if cc != i && cc != a && cc != b {
					break
				}
			}
			jr := rng.Intn(n)
			trial := trials[i]
			for j := 0; j < n; j++ {
				if j == jr || rng.Float64() < cr {
					v := xs[a][j] + fw*(xs[b][j]-xs[cc][j])
					// Reflect into bounds.
					if v < lo[j] {
						v = lo[j] + (lo[j]-v)*rng.Float64()
						if v > hi[j] {
							v = lo[j] + rng.Float64()*(hi[j]-lo[j])
						}
					}
					if v > hi[j] {
						v = hi[j] - (v-hi[j])*rng.Float64()
						if v < lo[j] {
							v = lo[j] + rng.Float64()*(hi[j]-lo[j])
						}
					}
					trial[j] = v
				} else {
					trial[j] = xs[i][j]
				}
			}
		}
		// Each trial is bounded by its parent's value: fs is only read
		// until acceptance below.
		c.evalBatch(pool, trials, fs, tfs)
		for i := 0; i < pop; i++ {
			if tfs[i] <= fs[i] {
				copy(xs[i], trials[i])
				fs[i] = tfs[i]
				if fs[i] < fs[best] {
					best = i
				}
			}
		}
		em.gen(g, c.n, fs[best])
	}
	em.done(c.n, fs[best])
	return Result{X: append([]float64(nil), xs[best]...), F: fs[best], Evals: c.n, Converged: false}, nil
}

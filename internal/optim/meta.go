package optim

import (
	"context"
	"math"
	"math/rand"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// DEOptions configures differential evolution.
type DEOptions struct {
	// Pop is the population size (default 15 * dim, min 20).
	Pop int
	// Generations caps the number of generations (default 300).
	Generations int
	// F is the differential weight (default 0.7).
	F float64
	// CR is the crossover probability (default 0.9).
	CR float64
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// Tol stops early when the population's objective spread falls below it
	// (default 0: run all generations).
	Tol float64
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
	// Checkpoint, when non-nil, receives a deep-copied state snapshot after
	// every generation for periodic persistence.
	Checkpoint func(DEState)
	// Resume, when non-nil, restores a checkpointed state: the population is
	// reinstated and the RNG stream fast-forwarded to its recorded position,
	// so the resumed run is bit-identical to an uninterrupted one with the
	// same options.
	Resume *DEState
}

// DEState is a differential-evolution checkpoint: everything needed to
// resume a run bit-identically.
type DEState struct {
	// Gen is the next generation to run.
	Gen int `json:"gen"`
	// Xs and Fs hold the population and its objective values.
	Xs [][]float64 `json:"xs"`
	Fs []float64   `json:"fs"`
	// Best indexes the best member of Xs.
	Best int `json:"best"`
	// Draws is the RNG stream position (counted source draws).
	Draws uint64 `json:"draws"`
	// Evals is the cumulative objective evaluation count.
	Evals int `json:"evals"`
}

// snapshotDE deep-copies the live population into a checkpoint.
func snapshotDE(gen int, xs [][]float64, fs []float64, best int, draws uint64, evals int) DEState {
	st := DEState{Gen: gen, Best: best, Draws: draws, Evals: evals}
	st.Xs = make([][]float64, len(xs))
	for i := range xs {
		st.Xs[i] = append([]float64(nil), xs[i]...)
	}
	st.Fs = append([]float64(nil), fs...)
	return st
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
// loses, as it would have at full cost. Every accepted population, Result,
// evaluation count and checkpoint is therefore bit-identical to
// DifferentialEvolution on f. A trial that stops early still counts as one
// evaluation.
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
	gens, fw, cr, seed, tol, workers := 300, 0.7, 0.9, int64(1), 0.0, 1
	var observer obs.Observer
	var ctrl *resilience.RunController
	var checkpoint func(DEState)
	var resume *DEState
	scope := ""
	if opts != nil {
		workers = opts.Workers
		if opts.Pop > 3 {
			pop = opts.Pop
		}
		if opts.Generations > 0 {
			gens = opts.Generations
		}
		if opts.F > 0 {
			fw = opts.F
		}
		if opts.CR > 0 {
			cr = opts.CR
		}
		if opts.Seed != 0 {
			seed = opts.Seed
		}
		if opts.Tol > 0 {
			tol = opts.Tol
		}
		observer, scope = opts.Observer, opts.Scope
		ctrl, checkpoint, resume = opts.Control, opts.Checkpoint, opts.Resume
	}
	em := newEmitter(observer, scope, scopeDE)
	em.ctx = ctx
	src := resilience.NewCountedSource(seed)
	rng := rand.New(src)
	c.ctrl, c.em = ctrl, &em
	pool := NewEvalPool(workers)

	var xs [][]float64
	var fs []float64
	best, startGen := 0, 0
	if resume != nil {
		if len(resume.Xs) != pop || len(resume.Fs) != pop || resume.Best < 0 || resume.Best >= pop {
			return Result{}, ErrBadInput
		}
		xs = make([][]float64, pop)
		for i := range xs {
			if len(resume.Xs[i]) != n {
				return Result{}, ErrBadInput
			}
			xs[i] = append([]float64(nil), resume.Xs[i]...)
		}
		fs = append([]float64(nil), resume.Fs...)
		best, startGen, c.n = resume.Best, resume.Gen, resume.Evals
		src.FastForward(resume.Draws)
	} else {
		xs = make([][]float64, pop)
		fs = make([]float64, pop)
		for i := range xs {
			xs[i] = make([]float64, n)
			for j := range xs[i] {
				xs[i][j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
		}
		c.evalBatch(pool, xs, nil, fs)
		for i := range fs {
			if fs[i] < fs[best] {
				best = i
			}
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
	for g := startGen; g < gens; g++ {
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
		if checkpoint != nil {
			checkpoint(snapshotDE(g+1, xs, fs, best, src.Draws(), c.n))
		}
		if tol > 0 {
			mn, mx := fs[0], fs[0]
			for _, v := range fs[1:] {
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
			}
			if mx-mn < tol*(1+math.Abs(mn)) {
				em.done(c.n, fs[best])
				return Result{X: append([]float64(nil), xs[best]...), F: fs[best], Evals: c.n, Converged: true}, nil
			}
		}
	}
	em.done(c.n, fs[best])
	return Result{X: append([]float64(nil), xs[best]...), F: fs[best], Evals: c.n, Converged: false}, nil
}

// PSOOptions configures particle-swarm optimization.
type PSOOptions struct {
	// Pop is the swarm size (default 10*dim, min 20).
	Pop int
	// Iterations caps the run (default 300).
	Iterations int
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// Workers bounds the goroutines used to evaluate each iteration's
	// position batch (<= 1: serial). Randomness stays on the driver and
	// personal/global bests are updated in index order after the batch, so
	// the run is bit-identical for any worker count; f must be safe for
	// concurrent calls when Workers > 1.
	Workers int
	// Observer receives per-iteration convergence events (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.pso").
	Scope string
	// Control is polled once per iteration; on a stop the run returns the
	// global best alongside the *resilience.Stopped error (nil: never
	// stops).
	Control *resilience.RunController
	// Checkpoint, when non-nil, receives a deep-copied state snapshot after
	// every iteration for periodic persistence.
	Checkpoint func(PSOState)
	// Resume, when non-nil, restores a checkpointed state for a
	// bit-identical continuation (see DEOptions.Resume).
	Resume *PSOState
}

// PSOState is a particle-swarm checkpoint.
type PSOState struct {
	// It is the next iteration to run.
	It int `json:"it"`
	// X, V, Pb, Pf hold the particle positions, velocities, personal bests
	// and personal-best objective values.
	X  [][]float64 `json:"x"`
	V  [][]float64 `json:"v"`
	Pb [][]float64 `json:"pb"`
	Pf []float64   `json:"pf"`
	// Gb, Gf hold the global best position and value.
	Gb []float64 `json:"gb"`
	Gf float64   `json:"gf"`
	// Draws is the RNG stream position; Evals the cumulative count.
	Draws uint64 `json:"draws"`
	Evals int    `json:"evals"`
}

func copyMat(m [][]float64) [][]float64 {
	return copyMatInto(nil, m)
}

// copyMatInto deep-copies src into dst, reusing dst's rows when the shapes
// already match so hot loops that copy repeatedly (resume restoration,
// non-retained working state) stop churning allocations. Checkpoint
// snapshots handed to callers still go through a nil dst — they must stay
// defensive copies because the callback may retain them.
func copyMatInto(dst, src [][]float64) [][]float64 {
	if len(dst) != len(src) {
		dst = make([][]float64, len(src))
	}
	for i := range src {
		if len(dst[i]) != len(src[i]) {
			dst[i] = make([]float64, len(src[i]))
		}
		copy(dst[i], src[i])
	}
	return dst
}

// ParticleSwarm minimizes f over the box [lo, hi] with a standard
// constricted-velocity swarm. The update is batch-synchronous: every
// particle moves against the previous iteration's global best, the whole
// swarm is evaluated as one batch — across Workers goroutines when
// configured — and bests are updated in index order, so the trajectory is
// bit-identical for any worker count.
func ParticleSwarm(f Objective, lo, hi []float64, opts *PSOOptions) (Result, error) {
	return profRun("pso", func(ctx context.Context) (Result, error) {
		return particleSwarm(ctx, f, lo, hi, opts)
	})
}

func particleSwarm(ctx context.Context, f Objective, lo, hi []float64, opts *PSOOptions) (Result, error) {
	n := len(lo)
	if n == 0 || len(hi) != n {
		return Result{}, ErrBadInput
	}
	pop := 10 * n
	if pop < 20 {
		pop = 20
	}
	iters, seed, workers := 300, int64(1), 1
	var observer obs.Observer
	var ctrl *resilience.RunController
	var checkpoint func(PSOState)
	var resume *PSOState
	scope := ""
	if opts != nil {
		workers = opts.Workers
		if opts.Pop > 1 {
			pop = opts.Pop
		}
		if opts.Iterations > 0 {
			iters = opts.Iterations
		}
		if opts.Seed != 0 {
			seed = opts.Seed
		}
		observer, scope = opts.Observer, opts.Scope
		ctrl, checkpoint, resume = opts.Control, opts.Checkpoint, opts.Resume
	}
	em := newEmitter(observer, scope, scopePSO)
	em.ctx = ctx
	src := resilience.NewCountedSource(seed)
	rng := rand.New(src)
	c := &counter{f: f, ctrl: ctrl, em: &em}
	pool := NewEvalPool(workers)
	const (
		w  = 0.7298 // constriction
		c1 = 1.4962
		c2 = 1.4962
	)
	var x, v, pb [][]float64
	var pf, gb []float64
	gf := math.Inf(1)
	startIt := 0
	if resume != nil {
		if len(resume.X) != pop || len(resume.V) != pop || len(resume.Pb) != pop ||
			len(resume.Pf) != pop || len(resume.Gb) != n {
			return Result{}, ErrBadInput
		}
		x, v, pb = copyMat(resume.X), copyMat(resume.V), copyMat(resume.Pb)
		pf = append([]float64(nil), resume.Pf...)
		gb = append([]float64(nil), resume.Gb...)
		gf, startIt, c.n = resume.Gf, resume.It, resume.Evals
		src.FastForward(resume.Draws)
	} else {
		x = make([][]float64, pop)
		v = make([][]float64, pop)
		pb = make([][]float64, pop)
		pf = make([]float64, pop)
		gb = make([]float64, n)
		for i := range x {
			x[i] = make([]float64, n)
			v[i] = make([]float64, n)
			for j := range x[i] {
				span := hi[j] - lo[j]
				x[i][j] = lo[j] + rng.Float64()*span
				v[i][j] = (rng.Float64()*2 - 1) * span * 0.1
			}
			pb[i] = append([]float64(nil), x[i]...)
		}
		c.evalBatch(pool, x, nil, pf)
		for i := range pf {
			if pf[i] < gf {
				gf = pf[i]
				copy(gb, x[i])
			}
		}
	}
	fxs := make([]float64, pop)
	for it := startIt; it < iters; it++ {
		if err := ctrl.Check(); err != nil {
			em.done(c.n, gf)
			return Result{X: append([]float64(nil), gb...), F: gf, Evals: c.n, Converged: false}, err
		}
		em.beginGen()
		for i := 0; i < pop; i++ {
			for j := 0; j < n; j++ {
				v[i][j] = w*v[i][j] +
					c1*rng.Float64()*(pb[i][j]-x[i][j]) +
					c2*rng.Float64()*(gb[j]-x[i][j])
				x[i][j] += v[i][j]
				if x[i][j] < lo[j] {
					x[i][j] = lo[j]
					v[i][j] = -0.5 * v[i][j]
				}
				if x[i][j] > hi[j] {
					x[i][j] = hi[j]
					v[i][j] = -0.5 * v[i][j]
				}
			}
		}
		c.evalBatch(pool, x, nil, fxs)
		for i := 0; i < pop; i++ {
			if fxs[i] < pf[i] {
				pf[i] = fxs[i]
				copy(pb[i], x[i])
				if fxs[i] < gf {
					gf = fxs[i]
					copy(gb, x[i])
				}
			}
		}
		em.gen(it, c.n, gf)
		if checkpoint != nil {
			checkpoint(PSOState{
				It: it + 1, X: copyMat(x), V: copyMat(v), Pb: copyMat(pb),
				Pf: append([]float64(nil), pf...), Gb: append([]float64(nil), gb...),
				Gf: gf, Draws: src.Draws(), Evals: c.n,
			})
		}
	}
	em.done(c.n, gf)
	return Result{X: gb, F: gf, Evals: c.n, Converged: false}, nil
}

// SAOptions configures simulated annealing.
type SAOptions struct {
	// Iterations is the total annealing budget (default 20000).
	Iterations int
	// T0 is the initial temperature relative to the initial objective
	// magnitude (default 1.0).
	T0 float64
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// Observer receives sampled convergence events — at most ~200 over the
	// run, so long anneals do not flood the journal (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.sa").
	Scope string
	// Control is polled once per iteration; on a stop the run returns the
	// best point alongside the *resilience.Stopped error (nil: never stops).
	Control *resilience.RunController
	// Checkpoint, when non-nil, receives a state snapshot at the same
	// sampled stride as the observer (at most ~200 per run).
	Checkpoint func(SAState)
	// Resume, when non-nil, restores a checkpointed state for a
	// bit-identical continuation (see DEOptions.Resume).
	Resume *SAState
}

// SAState is a simulated-annealing checkpoint.
type SAState struct {
	// It is the next iteration to run.
	It int `json:"it"`
	// X, Fx hold the current point and value; Best, Fb the incumbent.
	X    []float64 `json:"x"`
	Fx   float64   `json:"fx"`
	Best []float64 `json:"best"`
	Fb   float64   `json:"fb"`
	// Temp is the current annealing temperature.
	Temp float64 `json:"temp"`
	// Draws is the RNG stream position; Evals the cumulative count.
	Draws uint64 `json:"draws"`
	Evals int    `json:"evals"`
}

// SimulatedAnnealing minimizes f over the box [lo, hi] with geometric
// cooling and coordinate-wise Gaussian proposals.
func SimulatedAnnealing(f Objective, lo, hi []float64, opts *SAOptions) (Result, error) {
	return profRun("sa", func(context.Context) (Result, error) {
		return simulatedAnnealing(f, lo, hi, opts)
	})
}

func simulatedAnnealing(f Objective, lo, hi []float64, opts *SAOptions) (Result, error) {
	n := len(lo)
	if n == 0 || len(hi) != n {
		return Result{}, ErrBadInput
	}
	iters, t0, seed := 20000, 1.0, int64(1)
	var observer obs.Observer
	var ctrl *resilience.RunController
	var checkpoint func(SAState)
	var resume *SAState
	scope := ""
	if opts != nil {
		if opts.Iterations > 0 {
			iters = opts.Iterations
		}
		if opts.T0 > 0 {
			t0 = opts.T0
		}
		if opts.Seed != 0 {
			seed = opts.Seed
		}
		observer, scope = opts.Observer, opts.Scope
		ctrl, checkpoint, resume = opts.Control, opts.Checkpoint, opts.Resume
	}
	em := newEmitter(observer, scope, scopeSA)
	stride := sampleStride(iters, 200)
	src := resilience.NewCountedSource(seed)
	rng := rand.New(src)
	c := &counter{f: f, ctrl: ctrl}
	cool := math.Pow(1e-6, 1/float64(iters)) // end ~1e-6 of start
	var x, best []float64
	var fx, fb, temp float64
	startIt := 0
	if resume != nil {
		if len(resume.X) != n || len(resume.Best) != n {
			return Result{}, ErrBadInput
		}
		x = append([]float64(nil), resume.X...)
		best = append([]float64(nil), resume.Best...)
		fx, fb, temp = resume.Fx, resume.Fb, resume.Temp
		startIt, c.n = resume.It, resume.Evals
		src.FastForward(resume.Draws)
	} else {
		x = make([]float64, n)
		for j := range x {
			x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		fx = c.eval(x)
		best = append([]float64(nil), x...)
		fb = fx
		temp = t0 * (1 + math.Abs(fx))
	}
	cand := make([]float64, n)
	for it := startIt; it < iters; it++ {
		if err := ctrl.Check(); err != nil {
			em.done(c.n, fb)
			return Result{X: append([]float64(nil), best...), F: fb, Evals: c.n, Converged: false}, err
		}
		copy(cand, x)
		j := rng.Intn(n)
		sigma := 0.1 * (hi[j] - lo[j]) * math.Max(temp/(t0*(1+math.Abs(fb))), 0.01)
		cand[j] += rng.NormFloat64() * sigma
		if cand[j] < lo[j] {
			cand[j] = lo[j]
		}
		if cand[j] > hi[j] {
			cand[j] = hi[j]
		}
		fc := c.eval(cand)
		if fc <= fx || rng.Float64() < math.Exp((fx-fc)/temp) {
			copy(x, cand)
			fx = fc
			if fx < fb {
				fb = fx
				copy(best, x)
			}
		}
		temp *= cool
		if it%stride == 0 {
			em.gen(it, c.n, fb)
			if checkpoint != nil {
				checkpoint(SAState{
					It: it + 1, X: append([]float64(nil), x...), Fx: fx,
					Best: append([]float64(nil), best...), Fb: fb, Temp: temp,
					Draws: src.Draws(), Evals: c.n,
				})
			}
		}
	}
	em.done(c.n, fb)
	return Result{X: best, F: fb, Evals: c.n, Converged: false}, nil
}

package optim

import (
	"context"
	"math"
	"sort"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// NSGA2Options configures the NSGA-II baseline.
type NSGA2Options struct {
	// Pop is the population size (default 80, forced even).
	Pop int
	// Generations is the number of generations (default 100).
	Generations int
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// Workers bounds the goroutines used to evaluate each generation's
	// offspring batch (<= 1: serial). Variation draws stay on the driver
	// goroutine and offspring are evaluated as one batch written back by
	// index, so the run is bit-identical for any worker count; obj must be
	// safe for concurrent calls when Workers > 1.
	Workers int
	// Observer receives per-generation convergence events; Best carries
	// the minimum of the first objective over the current parents, a cheap
	// scalar proxy for front progress (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.nsga2").
	Scope string
	// Control is polled once per generation; on a stop the run returns the
	// current non-dominated front alongside the *resilience.Stopped error
	// (nil: never stops).
	Control *resilience.RunController
}

// NSGA2Result reports a run: the final non-dominated set.
type NSGA2Result struct {
	// X holds the Pareto-set design vectors.
	X [][]float64
	// F holds the corresponding objective vectors.
	F [][]float64
	// Evals counts vector-objective evaluations.
	Evals int
}

type nsgaInd struct {
	x, f  []float64
	rank  int
	crowd float64
}

// NSGA2 runs the elitist non-dominated sorting genetic algorithm, the
// population-based baseline for the Pareto-front comparison experiment.
func NSGA2(obj VectorObjective, lo, hi []float64, opts *NSGA2Options) (NSGA2Result, error) {
	var res NSGA2Result
	var err error
	obs.ProfDo("optim", "nsga2", func(ctx context.Context) {
		res, err = nsga2(ctx, obj, lo, hi, opts)
	})
	return res, err
}

func nsga2(ctx context.Context, obj VectorObjective, lo, hi []float64, opts *NSGA2Options) (NSGA2Result, error) {
	n := len(lo)
	if obj == nil || n == 0 || len(hi) != n {
		return NSGA2Result{}, ErrBadInput
	}
	pop, gens, seed, workers := 80, 100, int64(1), 1
	const etaC, etaM = 15.0, 20.0 // SBX and polynomial-mutation distribution indices
	pm := 1.0 / float64(n)        // per-gene mutation probability
	var observer obs.Observer
	var ctrl *resilience.RunController
	scope := ""
	if opts != nil {
		observer, scope = opts.Observer, opts.Scope
		ctrl = opts.Control
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
	}
	if pop%2 == 1 {
		pop++
	}
	em := newEmitter(observer, scope, scopeNSGA2)
	em.ctx = ctx
	rng := newRand(seed)
	pl := NewEvalPool(workers)
	evals := 0
	// evalBatch charges the eval tally on the driver once per candidate and
	// fans the objective calls across the pool, writing back by index.
	evalBatch := func(xs [][]float64, out [][]float64) {
		evals += len(xs)
		ctrl.AddEvals(len(xs))
		pl.mapVector(obj, xs, out, em.batch())
	}

	parents := make([]nsgaInd, pop)
	batchX := make([][]float64, 0, pop)
	batchF := make([][]float64, pop)
	for i := range parents {
		x := make([]float64, n)
		for j := range x {
			x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		parents[i] = nsgaInd{x: x}
		batchX = append(batchX, x)
	}
	evalBatch(batchX, batchF)
	for i := range parents {
		parents[i].f = batchF[i]
	}
	rankAndCrowd(parents)

	for g := 0; g < gens; g++ {
		if err := ctrl.Check(); err != nil {
			em.done(evals, minFirstObjective(parents))
			return frontOf(parents, evals), err
		}
		em.beginGen()
		// Variation first (all RNG draws, in index order), then one batch
		// evaluation of the offspring.
		batchX = batchX[:0]
		for len(batchX) < pop {
			p1 := tournament(parents, rng)
			p2 := tournament(parents, rng)
			c1, c2 := sbx(p1.x, p2.x, lo, hi, etaC, rng)
			mutate(c1, lo, hi, etaM, pm, rng)
			mutate(c2, lo, hi, etaM, pm, rng)
			batchX = append(batchX, c1, c2)
		}
		evalBatch(batchX, batchF)
		children := make([]nsgaInd, pop)
		for i := range children {
			children[i] = nsgaInd{x: batchX[i], f: batchF[i]}
		}
		union := append(parents, children...)
		rankAndCrowd(union)
		sort.Slice(union, func(a, b int) bool {
			if union[a].rank != union[b].rank {
				return union[a].rank < union[b].rank
			}
			return union[a].crowd > union[b].crowd
		})
		parents = append([]nsgaInd(nil), union[:pop]...)
		em.gen(g, evals, minFirstObjective(parents))
	}
	em.done(evals, minFirstObjective(parents))
	return frontOf(parents, evals), nil
}

// frontOf extracts the rank-0 set of a ranked population into a result.
func frontOf(parents []nsgaInd, evals int) NSGA2Result {
	res := NSGA2Result{Evals: evals}
	for _, ind := range parents {
		if ind.rank == 0 {
			res.X = append(res.X, ind.x)
			res.F = append(res.F, ind.f)
		}
	}
	return res
}

// minFirstObjective is the scalar convergence proxy reported for NSGA-II.
func minFirstObjective(pop []nsgaInd) float64 {
	best := math.Inf(1)
	for _, ind := range pop {
		if len(ind.f) > 0 && ind.f[0] < best {
			best = ind.f[0]
		}
	}
	return best
}

// tournament picks the better of two random individuals (rank, then crowd).
func tournament(pop []nsgaInd, rng interface{ Intn(int) int }) nsgaInd {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.rank < b.rank || (a.rank == b.rank && a.crowd > b.crowd) {
		return a
	}
	return b
}

// rankAndCrowd assigns non-domination ranks and crowding distances in place.
func rankAndCrowd(pop []nsgaInd) {
	nPop := len(pop)
	dominatedBy := make([][]int, nPop)
	domCount := make([]int, nPop)
	var first []int
	for i := 0; i < nPop; i++ {
		for j := 0; j < nPop; j++ {
			if i == j {
				continue
			}
			if Dominates(pop[i].f, pop[j].f) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if Dominates(pop[j].f, pop[i].f) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			pop[i].rank = 0
			first = append(first, i)
		}
	}
	front := first
	rank := 0
	for len(front) > 0 {
		var next []int
		for _, i := range front {
			for _, j := range dominatedBy[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		crowding(pop, front)
		front = next
		rank++
	}
}

// crowding computes crowding distance for the individuals indexed by front.
func crowding(pop []nsgaInd, front []int) {
	if len(front) == 0 {
		return
	}
	m := len(pop[front[0]].f)
	for _, i := range front {
		pop[i].crowd = 0
	}
	idx := append([]int(nil), front...)
	for k := 0; k < m; k++ {
		sort.Slice(idx, func(a, b int) bool { return pop[idx[a]].f[k] < pop[idx[b]].f[k] })
		lo, hi := pop[idx[0]].f[k], pop[idx[len(idx)-1]].f[k]
		pop[idx[0]].crowd = math.Inf(1)
		pop[idx[len(idx)-1]].crowd = math.Inf(1)
		if hi == lo {
			continue
		}
		for t := 1; t < len(idx)-1; t++ {
			pop[idx[t]].crowd += (pop[idx[t+1]].f[k] - pop[idx[t-1]].f[k]) / (hi - lo)
		}
	}
}

// sbx performs simulated binary crossover.
func sbx(p1, p2, lo, hi []float64, eta float64, rng interface{ Float64() float64 }) (c1, c2 []float64) {
	n := len(p1)
	c1 = make([]float64, n)
	c2 = make([]float64, n)
	for j := 0; j < n; j++ {
		if rng.Float64() < 0.9 {
			u := rng.Float64()
			var beta float64
			if u <= 0.5 {
				beta = math.Pow(2*u, 1/(eta+1))
			} else {
				beta = math.Pow(1/(2*(1-u)), 1/(eta+1))
			}
			c1[j] = 0.5 * ((1+beta)*p1[j] + (1-beta)*p2[j])
			c2[j] = 0.5 * ((1-beta)*p1[j] + (1+beta)*p2[j])
		} else {
			c1[j], c2[j] = p1[j], p2[j]
		}
		c1[j] = math.Min(math.Max(c1[j], lo[j]), hi[j])
		c2[j] = math.Min(math.Max(c2[j], lo[j]), hi[j])
	}
	return c1, c2
}

// mutate applies polynomial mutation in place.
func mutate(x, lo, hi []float64, eta, prob float64, rng interface{ Float64() float64 }) {
	for j := range x {
		if rng.Float64() >= prob {
			continue
		}
		u := rng.Float64()
		span := hi[j] - lo[j]
		var delta float64
		if u < 0.5 {
			delta = math.Pow(2*u, 1/(eta+1)) - 1
		} else {
			delta = 1 - math.Pow(2*(1-u), 1/(eta+1))
		}
		x[j] = math.Min(math.Max(x[j]+delta*span, lo[j]), hi[j])
	}
}

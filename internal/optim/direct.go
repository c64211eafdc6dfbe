// Package optim provides the optimization machinery of the paper's flow:
// differential evolution, which seeds the extraction and the design, with
// Nelder-Mead and Levenberg-Marquardt as the direct methods; and the
// multi-objective methods — the standard goal-attainment method of
// Gembicki, the paper's improved goal-attainment variant, a weighted-sum
// baseline and NSGA-II — plus Pareto-front utilities (dominance filtering,
// hypervolume, spread).
package optim

import (
	"context"
	"errors"
	"math"
	"sort"

	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// Objective is a scalar function to minimize.
type Objective func(x []float64) float64

// Result reports the outcome of a scalar minimization.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Evals is the number of objective evaluations consumed.
	Evals int
	// Converged reports whether the tolerance criterion was met before the
	// evaluation budget ran out.
	Converged bool
}

// ErrBadInput reports invalid optimizer input (empty vectors, inconsistent
// bounds).
var ErrBadInput = errors.New("optim: invalid input")

// counter wraps an objective with an evaluation counter. Only these leaf
// counters (and the few direct obj calls in goal.go) account evaluations
// against the resilience controller, so composite solvers never double-count.
// em, when set, supplies the trace context batch evaluations are attributed
// under (nil: untraced, the historical zero-overhead path). A counter built
// around a bounded objective fb evaluates its batches through fb instead of
// f.
type counter struct {
	f    Objective
	fb   BoundedObjective
	n    int
	ctrl *resilience.RunController
	em   *emitter
}

func (c *counter) eval(x []float64) float64 {
	c.n++
	c.ctrl.AddEvals(1)
	return c.f(x)
}

// call runs the raw objective on candidate i of a batch. A bounded
// objective gets bounds[i], or +Inf when bounds is nil.
func (c *counter) call(xs [][]float64, bounds []float64, i int) float64 {
	if c.fb == nil {
		return c.f(xs[i])
	}
	bound := math.Inf(1)
	if bounds != nil {
		bound = bounds[i]
	}
	return c.fb(xs[i], bound)
}

// NMOptions configures Nelder-Mead.
type NMOptions struct {
	// MaxEvals caps objective evaluations (default 2000 * dim).
	MaxEvals int
	// Scale is the initial simplex edge length (default 0.1 per coordinate,
	// scale-aware).
	Scale float64
	// Observer receives a KindDone event when the search finishes — the
	// polish stages run too many simplex iterations to journal each one
	// (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.nm").
	Scope string
	// Control is polled once per simplex iteration; on a stop the search
	// returns its best vertex alongside the *resilience.Stopped error
	// (nil: never stops).
	Control *resilience.RunController
}

func (o *NMOptions) defaults(dim int) NMOptions {
	out := NMOptions{MaxEvals: 2000 * dim, Scale: 0.1}
	if o != nil {
		if o.MaxEvals > 0 {
			out.MaxEvals = o.MaxEvals
		}
		if o.Scale > 0 {
			out.Scale = o.Scale
		}
		out.Observer, out.Scope, out.Control = o.Observer, o.Scope, o.Control
	}
	return out
}

// NelderMead minimizes f starting from x0 with the downhill-simplex method
// (adaptive parameters after Gao & Han).
func NelderMead(f Objective, x0 []float64, opts *NMOptions) (Result, error) {
	return profRun("nm", func(context.Context) (Result, error) {
		return nelderMead(f, x0, opts)
	})
}

func nelderMead(f Objective, x0 []float64, opts *NMOptions) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{}, ErrBadInput
	}
	o := opts.defaults(n)
	em := newEmitter(o.Observer, o.Scope, scopeNM)
	c := &counter{f: f, ctrl: o.Control}

	// Adaptive coefficients improve high-dimensional behaviour.
	nf := float64(n)
	alpha, beta, gamma, delta := 1.0, 1+2/nf, 0.75-1/(2*nf), 1-1/nf

	// Build initial simplex.
	simplex := make([][]float64, n+1)
	fv := make([]float64, n+1)
	for i := range simplex {
		p := append([]float64(nil), x0...)
		if i > 0 {
			step := o.Scale * (1 + math.Abs(p[i-1]))
			p[i-1] += step
		}
		simplex[i] = p
		fv[i] = c.eval(p)
	}

	// Sorting and trial-point scratch is hoisted out of the loop: the polish
	// stages run tens of thousands of simplex iterations, and per-iteration
	// slices were the dominant allocation churn of the local searches.
	idx := make([]int, n+1)
	ns := make([][]float64, n+1)
	nv := make([]float64, n+1)
	order := func() {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return fv[idx[a]] < fv[idx[b]] })
		for i, j := range idx {
			ns[i], nv[i] = simplex[j], fv[j]
		}
		copy(simplex, ns)
		copy(fv, nv)
	}

	centroid := make([]float64, n)
	pointInto := func(p, base []float64, coef float64, away []float64) {
		for i := range p {
			p[i] = base[i] + coef*(base[i]-away[i])
		}
	}
	// Two recycled trial buffers; when a trial is accepted it is swapped
	// into the simplex and the displaced worst vertex becomes the new spare,
	// so accepted points are retained without copying or allocating.
	xr := make([]float64, n)
	xt := make([]float64, n)
	accept := func(buf []float64, f float64) []float64 {
		old := simplex[n]
		simplex[n], fv[n] = buf, f
		return old
	}

	for c.n < o.MaxEvals {
		order()
		if err := o.Control.Check(); err != nil {
			em.done(c.n, fv[0])
			return Result{X: simplex[0], F: fv[0], Evals: c.n, Converged: false}, err
		}
		// Convergence: simplex function spread within a relative 1e-10.
		if math.Abs(fv[n]-fv[0]) <= 1e-10*(1+math.Abs(fv[0])) {
			em.done(c.n, fv[0])
			return Result{X: simplex[0], F: fv[0], Evals: c.n, Converged: true}, nil
		}
		for i := range centroid {
			centroid[i] = 0
			for j := 0; j < n; j++ {
				centroid[i] += simplex[j][i]
			}
			centroid[i] /= nf
		}
		pointInto(xr, centroid, alpha, simplex[n])
		fr := c.eval(xr)
		switch {
		case fr < fv[0]:
			// Try expansion.
			pointInto(xt, centroid, alpha*beta, simplex[n])
			if fe := c.eval(xt); fe < fr {
				xt = accept(xt, fe)
			} else {
				xr = accept(xr, fr)
			}
		case fr < fv[n-1]:
			xr = accept(xr, fr)
		default:
			// Contraction.
			if fr < fv[n] {
				pointInto(xt, centroid, alpha*gamma, simplex[n])
			} else {
				pointInto(xt, centroid, -gamma, simplex[n])
			}
			if fc := c.eval(xt); fc < math.Min(fr, fv[n]) {
				xt = accept(xt, fc)
			} else {
				// Shrink toward the best vertex.
				for j := 1; j <= n; j++ {
					for i := range simplex[j] {
						simplex[j][i] = simplex[0][i] + delta*(simplex[j][i]-simplex[0][i])
					}
					fv[j] = c.eval(simplex[j])
				}
			}
		}
	}
	order()
	em.done(c.n, fv[0])
	return Result{X: simplex[0], F: fv[0], Evals: c.n, Converged: false}, nil
}

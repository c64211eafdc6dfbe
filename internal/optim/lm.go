package optim

import (
	"context"
	"math"

	"gnsslna/internal/mathx"
	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// ResidualFunc maps parameters to a residual vector; Levenberg-Marquardt
// minimizes the sum of squared residuals. The vector's length must not
// depend on the parameters. Levenberg-Marquardt reads each result before
// the next call and keeps copies, so the function may return the same
// buffer on every call; it must not retain its argument.
type ResidualFunc func(x []float64) []float64

// LMOptions configures Levenberg-Marquardt.
type LMOptions struct {
	// MaxIter caps outer iterations (default 200).
	MaxIter int
	// Lower and Upper optionally box-constrain the parameters (projected
	// steps). Nil means unconstrained.
	Lower, Upper []float64
	// Observer receives per-iteration convergence events; Best carries the
	// current half-sum-of-squares cost (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.lm").
	Scope string
	// Control is polled once per outer iteration; residual evaluations
	// (Jacobians count dim+1) are accounted against its budget. On a stop
	// the fit returns its current parameters alongside the
	// *resilience.Stopped error (nil: never stops).
	Control *resilience.RunController
}

// LMResult reports a Levenberg-Marquardt run.
type LMResult struct {
	// X is the final parameter vector.
	X []float64
	// Cost is the final 0.5 * sum of squared residuals.
	Cost float64
	// Iters is the number of accepted iterations.
	Iters int
	// Evals counts residual-vector evaluations (Jacobians count dim+1).
	Evals int
	// Converged reports whether the tolerance was met.
	Converged bool
}

// LevenbergMarquardt minimizes 0.5*||r(x)||^2 with damped Gauss-Newton steps
// and a numerical Jacobian. An empty x0 or residual vector is ErrBadInput.
func LevenbergMarquardt(r ResidualFunc, x0 []float64, opts *LMOptions) (LMResult, error) {
	var res LMResult
	var err error
	obs.ProfDo("optim", "lm", func(context.Context) {
		res, err = levenbergMarquardt(r, x0, opts)
	})
	return res, err
}

func levenbergMarquardt(r ResidualFunc, x0 []float64, opts *LMOptions) (LMResult, error) {
	n := len(x0)
	if n == 0 {
		return LMResult{}, ErrBadInput
	}
	const tol = 1e-12 // relative cost decrease that ends the fit
	maxIter, lambda := 200, 1e-3
	var lower, upper []float64
	var observer obs.Observer
	var ctrl *resilience.RunController
	scope := ""
	if opts != nil {
		if opts.MaxIter > 0 {
			maxIter = opts.MaxIter
		}
		lower, upper = opts.Lower, opts.Upper
		observer, scope = opts.Observer, opts.Scope
		ctrl = opts.Control
	}
	em := newEmitter(observer, scope, scopeLM)
	project := func(x []float64) {
		for i := range x {
			if lower != nil && x[i] < lower[i] {
				x[i] = lower[i]
			}
			if upper != nil && x[i] > upper[i] {
				x[i] = upper[i]
			}
		}
	}

	x := append([]float64(nil), x0...)
	project(x)
	evals := 0
	// res keeps a copy: r may reuse its output buffer between calls.
	res := append([]float64(nil), r(x)...)
	evals++
	ctrl.AddEvals(1)
	cost := halfSq(res)
	m := len(res)
	if m == 0 {
		return LMResult{}, ErrBadInput
	}

	// The working set, allocated once per fit: the Jacobian with its
	// transpose and normal matrix, the damped copy the solve factorizes in
	// place, the gradient, the step, the trial point and the Jacobian's
	// f(x) and perturbation scratch.
	j, jt := mathx.NewMatrix(m, n), mathx.NewMatrix(n, m)
	jtj, a := mathx.NewMatrix(n, n), mathx.NewMatrix(n, n)
	g, step, xNew := make([]float64, n), make([]float64, n), make([]float64, n)
	fx, xp := make([]float64, m), make([]float64, n)

	converged := false
	iters := 0
	for it := 0; it < maxIter; it++ {
		if err := ctrl.Check(); err != nil {
			em.done(evals, cost)
			return LMResult{X: x, Cost: cost, Iters: iters, Evals: evals, Converged: false}, err
		}
		mathx.JacobianInto(j, r, x, fx, xp)
		evals += n + 1
		ctrl.AddEvals(n + 1)
		j.TransposeInto(jt)
		jt.MulInto(jtj, j)
		jt.MulVecInto(g, res)
		// Check gradient norm for stationarity.
		gn := 0.0
		for _, v := range g {
			gn += v * v
		}
		if math.Sqrt(gn) < 1e-15*(1+cost) {
			converged = true
			break
		}
		accepted := false
		for tries := 0; tries < 30; tries++ {
			a.CopyFrom(jtj)
			for i := 0; i < n; i++ {
				a.Add(i, i, lambda*(jtj.At(i, i)+1e-12))
			}
			for i := range step {
				step[i] = -g[i]
			}
			if err := mathx.SolveRInPlace(a, step); err != nil {
				lambda *= 10
				continue
			}
			for i := range xNew {
				xNew[i] = x[i] + step[i]
			}
			project(xNew)
			rNew := r(xNew)
			evals++
			ctrl.AddEvals(1)
			cNew := halfSq(rNew)
			if cNew < cost {
				rel := (cost - cNew) / (1 + cost)
				x, xNew = xNew, x
				copy(res, rNew)
				cost = cNew
				lambda = math.Max(lambda/3, 1e-12)
				accepted = true
				iters++
				em.gen(iters, evals, cost)
				if rel < tol {
					converged = true
				}
				break
			}
			lambda *= 10
			if lambda > 1e12 {
				break
			}
		}
		if !accepted || converged {
			if !accepted {
				converged = true // damping exhausted: local minimum to precision
			}
			break
		}
	}
	em.done(evals, cost)
	return LMResult{X: x, Cost: cost, Iters: iters, Evals: evals, Converged: converged}, nil
}

func halfSq(r []float64) float64 {
	var s float64
	for _, v := range r {
		s += v * v
	}
	return s / 2
}

package optim

import (
	"context"
	"math"
	"sort"

	"gnsslna/internal/mathx"
	"gnsslna/internal/obs"
	"gnsslna/internal/resilience"
)

// CMAESOptions configures the covariance-matrix-adaptation evolution
// strategy.
type CMAESOptions struct {
	// Lambda is the population size (default 4 + 3*ln(dim)).
	Lambda int
	// Generations caps the run (default 300).
	Generations int
	// Sigma0 is the initial step size relative to the box span
	// (default 0.3).
	Sigma0 float64
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// Workers bounds the goroutines used to evaluate each generation's
	// sample batch (<= 1: serial). Sampling stays on the driver goroutine
	// and selection consumes results in index order, so the run is
	// bit-identical for any worker count; f must be safe for concurrent
	// calls when Workers > 1.
	Workers int
	// Observer receives per-generation convergence events (nil: disabled).
	Observer obs.Observer
	// Scope labels emitted events (default "optim.cmaes").
	Scope string
	// Control is polled once per generation; on a stop the run returns the
	// best feasible point alongside the *resilience.Stopped error
	// (nil: never stops).
	Control *resilience.RunController
}

// CMAES minimizes f over the box [lo, hi] with a (mu/mu_w, lambda)-CMA-ES
// (Hansen's standard formulation with rank-one and rank-mu updates,
// simplified to a diagonal-plus-full covariance handled by explicit
// eigendecomposition via Jacobi rotations).
func CMAES(f Objective, lo, hi []float64, opts *CMAESOptions) (Result, error) {
	return profRun("cmaes", func(ctx context.Context) (Result, error) {
		return cmaes(ctx, f, lo, hi, opts)
	})
}

func cmaes(ctx context.Context, f Objective, lo, hi []float64, opts *CMAESOptions) (Result, error) {
	n := len(lo)
	if n == 0 || len(hi) != n {
		return Result{}, ErrBadInput
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Result{}, ErrBadInput
		}
	}
	lambda := 4 + int(3*math.Log(float64(n)))
	gens, sigmaRel, seed, workers := 300, 0.3, int64(1), 1
	var observer obs.Observer
	var ctrl *resilience.RunController
	scope := ""
	if opts != nil {
		if opts.Lambda > 3 {
			lambda = opts.Lambda
		}
		if opts.Generations > 0 {
			gens = opts.Generations
		}
		if opts.Sigma0 > 0 {
			sigmaRel = opts.Sigma0
		}
		if opts.Seed != 0 {
			seed = opts.Seed
		}
		workers = opts.Workers
		observer, scope = opts.Observer, opts.Scope
		ctrl = opts.Control
	}
	em := newEmitter(observer, scope, scopeCMAES)
	em.ctx = ctx
	rng := newRand(seed)
	c := &counter{f: f, ctrl: ctrl, em: &em}
	pool := NewEvalPool(workers)

	// Work in normalized coordinates u in [0,1]^n. Out-of-box samples are
	// evaluated at the clamped point plus a quadratic boundary penalty so
	// the selection gradient keeps pointing inward (plain clamping makes
	// the boundary flat and stalls the covariance adaptation).
	toXInto := func(x, u []float64) {
		for i := range x {
			v := mathx.Clamp(u[i], 0, 1)
			x[i] = lo[i] + v*(hi[i]-lo[i])
		}
	}
	boundaryPenalty := func(u []float64) float64 {
		var p float64
		for i := range u {
			if u[i] < 0 {
				p += u[i] * u[i]
			}
			if u[i] > 1 {
				p += (u[i] - 1) * (u[i] - 1)
			}
		}
		return p
	}

	mu := lambda / 2
	weights := make([]float64, mu)
	var wSum float64
	for i := range weights {
		weights[i] = math.Log(float64(mu)+0.5) - math.Log(float64(i+1))
		wSum += weights[i]
	}
	var muEff float64
	for i := range weights {
		weights[i] /= wSum
		muEff += weights[i] * weights[i]
	}
	muEff = 1 / muEff

	nf := float64(n)
	cc := (4 + muEff/nf) / (nf + 4 + 2*muEff/nf)
	cs := (muEff + 2) / (nf + muEff + 5)
	c1 := 2 / ((nf+1.3)*(nf+1.3) + muEff)
	cmu := math.Min(1-c1, 2*(muEff-2+1/muEff)/((nf+2)*(nf+2)+muEff))
	damps := 1 + 2*math.Max(0, math.Sqrt((muEff-1)/(nf+1))-1) + cs
	chiN := math.Sqrt(nf) * (1 - 1/(4*nf) + 1/(21*nf*nf))

	mean := make([]float64, n)
	for i := range mean {
		mean[i] = rng.Float64()
	}
	sigma := sigmaRel
	cov := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cov.Set(i, i, 1)
	}
	ps := make([]float64, n)
	pc := make([]float64, n)

	bestX := make([]float64, n)
	toXInto(bestX, mean)
	bestF := c.eval(bestX)

	// All per-generation working storage is allocated once and recycled:
	// the eigendecomposition workspace, the sample/candidate matrices and
	// the path/mean temporaries. Nothing below is retained across
	// generations except through explicit copies (bestX).
	eigWork := mathx.NewMatrix(n, n)
	b := mathx.NewMatrix(n, n)
	d := make([]float64, n)
	us := make([][]float64, lambda)
	xs := make([][]float64, lambda)
	ubuf := make([]float64, lambda*n)
	xbuf := make([]float64, lambda*n)
	for k := range us {
		us[k] = ubuf[k*n : (k+1)*n : (k+1)*n]
		xs[k] = xbuf[k*n : (k+1)*n : (k+1)*n]
	}
	rawf := make([]float64, lambda)
	penf := make([]float64, lambda)
	order := make([]int, lambda)
	z := make([]float64, n)
	y := make([]float64, n)
	oldMean := make([]float64, n)
	dm := make([]float64, n)
	cInvSqrtDM := make([]float64, n)
	tvec := make([]float64, n)

	for g := 0; g < gens; g++ {
		if err := ctrl.Check(); err != nil {
			em.done(c.n, bestF)
			return Result{X: bestX, F: bestF, Evals: c.n, Converged: false}, err
		}
		em.beginGen()
		// Eigendecomposition of cov: B D^2 B^T via Jacobi.
		jacobiEigenInto(cov, eigWork, b, d)
		for k := 0; k < lambda; k++ {
			for i := range z {
				z[i] = rng.NormFloat64()
			}
			// y = B * D * z
			for i := 0; i < n; i++ {
				var s float64
				for j := 0; j < n; j++ {
					s += b.At(i, j) * d[j] * z[j]
				}
				y[i] = s
			}
			u := us[k]
			for i := range u {
				u[i] = mean[i] + sigma*y[i]
			}
			toXInto(xs[k], u)
		}
		c.evalBatch(pool, xs, nil, rawf)
		for k := 0; k < lambda; k++ {
			raw := rawf[k]
			fx := raw
			if p := boundaryPenalty(us[k]); p > 0 {
				fx += (1 + math.Abs(raw)) * p * 100
			} else if raw < bestF {
				bestF = raw
				copy(bestX, xs[k])
			}
			penf[k] = fx
			order[k] = k
		}
		sort.Slice(order, func(a, bI int) bool { return penf[order[a]] < penf[order[bI]] })

		copy(oldMean, mean)
		for i := range mean {
			mean[i] = 0
			for k := 0; k < mu; k++ {
				mean[i] += weights[k] * us[order[k]][i]
			}
		}
		// Evolution paths.
		// C^(-1/2) * (mean-oldMean)/sigma = B * D^-1 * B^T * dm
		for i := range dm {
			dm[i] = (mean[i] - oldMean[i]) / sigma
		}
		{
			// t = B^T dm; t_i /= d_i; out = B t
			for i := 0; i < n; i++ {
				var s float64
				for j := 0; j < n; j++ {
					s += b.At(j, i) * dm[j]
				}
				tvec[i] = 0
				if d[i] > 1e-12 {
					tvec[i] = s / d[i]
				}
			}
			for i := 0; i < n; i++ {
				var s float64
				for j := 0; j < n; j++ {
					s += b.At(i, j) * tvec[j]
				}
				cInvSqrtDM[i] = s
			}
		}
		var psNorm float64
		for i := range ps {
			ps[i] = (1-cs)*ps[i] + math.Sqrt(cs*(2-cs)*muEff)*cInvSqrtDM[i]
			psNorm += ps[i] * ps[i]
		}
		psNorm = math.Sqrt(psNorm)
		hsig := 0.0
		if psNorm/math.Sqrt(1-math.Pow(1-cs, 2*float64(g+1)))/chiN < 1.4+2/(nf+1) {
			hsig = 1
		}
		for i := range pc {
			pc[i] = (1-cc)*pc[i] + hsig*math.Sqrt(cc*(2-cc)*muEff)*dm[i]
		}
		// Covariance update.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := (1 - c1 - cmu) * cov.At(i, j)
				v += c1 * (pc[i]*pc[j] + (1-hsig)*cc*(2-cc)*cov.At(i, j))
				for k := 0; k < mu; k++ {
					yi := (us[order[k]][i] - oldMean[i]) / sigma
					yj := (us[order[k]][j] - oldMean[j]) / sigma
					v += cmu * weights[k] * yi * yj
				}
				cov.Set(i, j, v)
			}
		}
		sigma *= math.Exp((cs / damps) * (psNorm/chiN - 1))
		em.gen(g, c.n, bestF)
		if sigma < 1e-12 {
			break
		}
	}
	em.done(c.n, bestF)
	return Result{X: bestX, F: bestF, Evals: c.n, Converged: false}, nil
}

// jacobiEigen computes the eigendecomposition of a symmetric matrix with
// cyclic Jacobi rotations, returning the eigenvector matrix B (columns) and
// the square roots of the (clamped-positive) eigenvalues.
func jacobiEigen(a *mathx.Matrix) (*mathx.Matrix, []float64) {
	n := a.Rows()
	v := mathx.NewMatrix(n, n)
	d := make([]float64, n)
	jacobiEigenInto(a, mathx.NewMatrix(n, n), v, d)
	return v, d
}

// jacobiEigenInto is jacobiEigen with caller-provided workspaces so hot
// loops can recycle them: m (clobbered working copy of a) and v must be
// n-by-n, d length n. On return v holds the eigenvectors and d the
// square-rooted eigenvalues.
func jacobiEigenInto(a, m, v *mathx.Matrix, d []float64) {
	n := a.Rows()
	m.CopyFrom(a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				v.Set(i, j, 1)
			} else {
				v.Set(i, j, 0)
			}
		}
	}
	for sweep := 0; sweep < 30; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-18 {
					continue
				}
				theta := (m.At(q, q) - m.At(p, p)) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				cth := 1 / math.Sqrt(t*t+1)
				sth := t * cth
				for k := 0; k < n; k++ {
					akp := m.At(k, p)
					akq := m.At(k, q)
					m.Set(k, p, cth*akp-sth*akq)
					m.Set(k, q, sth*akp+cth*akq)
				}
				for k := 0; k < n; k++ {
					apk := m.At(p, k)
					aqk := m.At(q, k)
					m.Set(p, k, cth*apk-sth*aqk)
					m.Set(q, k, sth*apk+cth*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, cth*vkp-sth*vkq)
					v.Set(k, q, sth*vkp+cth*vkq)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		ev := m.At(i, i)
		if ev < 1e-14 {
			ev = 1e-14
		}
		d[i] = math.Sqrt(ev)
	}
}

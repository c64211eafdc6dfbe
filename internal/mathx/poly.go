package mathx

import "fmt"

// PolyEval evaluates the polynomial with coefficients c (c[0] + c[1] x +
// c[2] x^2 + ...) at x using Horner's scheme.
func PolyEval(c []float64, x float64) float64 {
	var y float64
	for i := len(c) - 1; i >= 0; i-- {
		y = y*x + c[i]
	}
	return y
}

// PolyFit fits a polynomial of the given degree to the points (xs, ys) in the
// least-squares sense and returns its coefficients, lowest order first.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if degree < 0 {
		return nil, fmt.Errorf("mathx: PolyFit degree must be non-negative, got %d", degree)
	}
	if len(xs) != len(ys) || len(xs) < degree+1 {
		return nil, fmt.Errorf("mathx: PolyFit needs >= %d equal-length points, got %d/%d", degree+1, len(xs), len(ys))
	}
	a := NewMatrix(len(xs), degree+1)
	for i, x := range xs {
		p := 1.0
		for j := 0; j <= degree; j++ {
			a.Set(i, j, p)
			p *= x
		}
	}
	return LeastSquares(a, ys)
}

// Derivative computes a central-difference numerical derivative of f at x
// with a scale-aware step.
func Derivative(f func(float64) float64, x float64) float64 {
	h := 1e-6 * (1 + abs(x))
	return (f(x+h) - f(x-h)) / (2 * h)
}

// Derivative2 computes a central-difference numerical second derivative of f
// at x.
func Derivative2(f func(float64) float64, x float64) float64 {
	h := 1e-4 * (1 + abs(x))
	return (f(x+h) - 2*f(x) + f(x-h)) / (h * h)
}

// Derivative3 computes a numerical third derivative of f at x.
func Derivative3(f func(float64) float64, x float64) float64 {
	h := 1e-3 * (1 + abs(x))
	return (f(x+2*h) - 2*f(x+h) + 2*f(x-h) - f(x-2*h)) / (2 * h * h * h)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Jacobian computes the numerical Jacobian of a vector function f at x using
// forward differences: J[i][j] = df_i/dx_j. The returned matrix has one row
// per component of f(x).
func Jacobian(f func([]float64) []float64, x []float64) *Matrix {
	fx := f(x)
	j := NewMatrix(len(fx), len(x))
	jacobianColumns(j, f, x, fx, append([]float64(nil), x...))
	return j
}

// JacobianInto is Jacobian without allocation: it writes the forward
// difference Jacobian of f at x into j, which must be len(fx) x len(x),
// keeps f(x) in fx and perturbs a copy of x in xp (len(x)). Each result of
// f is read before f is called again, so f may return the same buffer on
// every call. It panics if the shapes disagree.
func JacobianInto(j *Matrix, f func([]float64) []float64, x, fx, xp []float64) {
	r := f(x)
	if len(r) != len(fx) || j.rows != len(fx) || j.cols != len(x) || len(xp) != len(x) {
		panic(fmt.Sprintf("mathx: JacobianInto shape mismatch: J %dx%d, f(x) %d, fx %d, x %d, xp %d",
			j.rows, j.cols, len(r), len(fx), len(x), len(xp)))
	}
	copy(fx, r)
	copy(xp, x)
	jacobianColumns(j, f, x, fx, xp)
}

// jacobianColumns fills j column by column from f(x) = fx, perturbing xp,
// which holds x on entry and on return.
func jacobianColumns(j *Matrix, f func([]float64) []float64, x, fx, xp []float64) {
	for col := range x {
		h := 1e-7 * (1 + abs(x[col]))
		xp[col] = x[col] + h
		fp := f(xp)
		xp[col] = x[col]
		for row := range fp {
			j.Set(row, col, (fp[row]-fx[row])/h)
		}
	}
}

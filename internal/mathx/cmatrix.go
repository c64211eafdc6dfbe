package mathx

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mathx: matrix is singular to working precision")

// CMatrix is a dense, row-major matrix of complex128 values.
type CMatrix struct {
	rows, cols int
	data       []complex128
}

// NewCMatrix returns a zero-initialized rows x cols complex matrix.
func NewCMatrix(rows, cols int) *CMatrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid complex matrix dimensions %dx%d", rows, cols))
	}
	return &CMatrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// CMatrixFromRows builds a matrix from row slices. All rows must have equal
// length.
func CMatrixFromRows(rows [][]complex128) *CMatrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mathx: CMatrixFromRows requires at least one non-empty row")
	}
	m := NewCMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("mathx: CMatrixFromRows rows have unequal lengths")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *CMatrix) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *CMatrix) At(i, j int) complex128 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *CMatrix) Set(i, j int, v complex128) { m.data[i*m.cols+j] = v }

// Add accumulates v into the element at row i, column j. It is the stamping
// primitive used by the MNA assembler.
func (m *CMatrix) Add(i, j int, v complex128) { m.data[i*m.cols+j] += v }

// Zero resets every element to zero, retaining the backing storage.
func (m *CMatrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// String renders the matrix for debugging.
func (m *CMatrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .4e%+.4ei ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CLU is an LU factorization with partial pivoting of a square complex
// matrix, suitable for repeated solves against different right-hand sides.
type CLU struct {
	lu   *CMatrix
	piv  []int
	sign int
}

// LUFactorize computes the LU factorization of a square matrix with partial
// pivoting. The input matrix is not modified.
func LUFactorize(a *CMatrix) (*CLU, error) {
	f := &CLU{}
	if err := f.Factorize(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factorize recomputes the factorization for a new matrix, reusing the
// receiver's working storage when the order matches. The input matrix is
// not modified. It is the workspace variant of LUFactorize for per-frequency
// solver loops that refactor matrices of a fixed order.
func (f *CLU) Factorize(a *CMatrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("mathx: LUFactorize requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	lu := f.lu
	if lu == nil || lu.rows != n || lu.cols != n {
		lu = NewCMatrix(n, n)
		f.piv = make([]int, n)
	}
	copy(lu.data, a.data)
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		// Partial pivot: pick the largest magnitude element in this column.
		p, pm := col, cmplx.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if m := cmplx.Abs(lu.At(r, col)); m > pm {
				p, pm = r, m
			}
		}
		if pm == 0 {
			return ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[col*n+j] = lu.data[col*n+j], lu.data[p*n+j]
			}
			piv[p], piv[col] = piv[col], piv[p]
			sign = -sign
		}
		pivot := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			fac := lu.At(r, col) / pivot
			lu.Set(r, col, fac)
			if fac == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.data[r*n+j] -= fac * lu.data[col*n+j]
			}
		}
	}
	f.lu, f.piv, f.sign = lu, piv, sign
	return nil
}

// Solve solves A x = b for x given the factorization of A. b is unmodified.
func (f *CLU) Solve(b []complex128) ([]complex128, error) {
	x := make([]complex128, f.lu.rows)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b into the caller-provided x (len n). b is
// unmodified; x and b must not alias.
func (f *CLU) SolveInto(x, b []complex128) error {
	n := f.lu.rows
	if len(b) != n {
		return fmt.Errorf("mathx: CLU.Solve rhs length %d does not match matrix order %d", len(b), n)
	}
	if len(x) != n {
		return fmt.Errorf("mathx: CLU.Solve solution length %d does not match matrix order %d", len(x), n)
	}
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.data[i*n+j] * x[j]
		}
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.data[i*n+j] * x[j]
		}
		x[i] /= f.lu.data[i*n+i]
	}
	return nil
}

// SolveC solves the dense complex linear system A x = b.
func SolveC(a *CMatrix, b []complex128) ([]complex128, error) {
	f, err := LUFactorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// MaxAbsDiff returns the largest elementwise magnitude difference between two
// equally sized matrices. It is primarily a test helper but is exported for
// use in the verification harnesses.
func MaxAbsDiff(a, b *CMatrix) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mathx: MaxAbsDiff dimension mismatch")
	}
	var m float64
	for i := range a.data {
		if d := cmplx.Abs(a.data[i] - b.data[i]); d > m {
			m = d
		}
	}
	return m
}

// CloseC reports whether two complex values agree within tol in absolute
// terms.
func CloseC(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

// Close reports whether two floats agree within tol in absolute terms.
func Close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// CloseRel reports whether two floats agree within rel relative tolerance
// (with an absolute floor of rel for values near zero).
func CloseRel(a, b, rel float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= rel*scale
}

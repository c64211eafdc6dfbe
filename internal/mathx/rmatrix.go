package mathx

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized rows x cols real matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices of equal length.
func MatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mathx: MatrixFromRows requires at least one non-empty row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("mathx: MatrixFromRows rows have unequal lengths")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add accumulates v into the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m with the contents of src, letting hot loops reuse a
// preallocated matrix instead of cloning. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mathx: CopyFrom shape mismatch %dx%d vs %dx%d",
			m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	m.TransposeInto(out)
	return out
}

// TransposeInto writes the transpose of m into dst, which must be
// m.Cols() x m.Rows() and must not be m.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.rows != m.cols || dst.cols != m.rows {
		panic(fmt.Sprintf("mathx: TransposeInto shape mismatch %dx%d into %dx%d",
			m.rows, m.cols, dst.rows, dst.cols))
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.Set(j, i, m.At(i, j))
		}
	}
}

// Mul returns the matrix product m * n.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.cols != n.rows {
		panic(fmt.Sprintf("mathx: Matrix.Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := NewMatrix(m.rows, n.cols)
	m.MulInto(out, n)
	return out
}

// MulInto writes the matrix product m * n into dst, which must be
// m.Rows() x n.Cols() and must alias neither operand. It adds the products
// in Mul's order, so the result equals Mul's bit for bit.
func (m *Matrix) MulInto(dst, n *Matrix) {
	if m.cols != n.rows || dst.rows != m.rows || dst.cols != n.cols {
		panic(fmt.Sprintf("mathx: Matrix.MulInto dimension mismatch %dx%d * %dx%d into %dx%d",
			m.rows, m.cols, n.rows, n.cols, dst.rows, dst.cols))
	}
	clear(dst.data)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				dst.data[i*n.cols+j] += a * n.data[k*n.cols+j]
			}
		}
	}
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	out := make([]float64, m.rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecInto writes the matrix-vector product m * v into dst (length
// m.Rows(), not aliasing v).
func (m *Matrix) MulVecInto(dst, v []float64) {
	if m.cols != len(v) || len(dst) != m.rows {
		panic("mathx: Matrix.MulVec dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
}

// SolveR solves the dense real linear system A x = b using LU with partial
// pivoting. A and b are not modified.
func SolveR(a *Matrix, b []float64) ([]float64, error) {
	lu := a.Clone()
	x := append([]float64(nil), b...)
	if err := SolveRInPlace(lu, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveRInPlace is SolveR without allocation: it factorizes a in place
// (LU with partial pivoting) and overwrites b with the solution of A x = b.
// On an error both hold partial results.
func SolveRInPlace(a *Matrix, b []float64) error {
	if a.rows != a.cols {
		return fmt.Errorf("mathx: SolveR requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	if len(b) != n {
		return fmt.Errorf("mathx: SolveR rhs length %d does not match matrix order %d", len(b), n)
	}
	lu, x := a, b
	for col := 0; col < n; col++ {
		p, pm := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if m := math.Abs(lu.At(r, col)); m > pm {
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
			x[p], x[col] = x[col], x[p]
		}
		pivot := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / pivot
			if f == 0 {
				continue
			}
			x[r] -= f * x[col]
			for j := col; j < n; j++ {
				lu.data[r*n+j] -= f * lu.data[col*n+j]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= lu.data[i*n+j] * x[j]
		}
		x[i] /= lu.data[i*n+i]
	}
	return nil
}

// LeastSquares solves the overdetermined system A x ~= b in the least-squares
// sense via column-equilibrated normal equations with a tiny Tikhonov
// regularization for numerical robustness. A must have at least as many rows
// as columns.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.rows < a.cols {
		return nil, fmt.Errorf("mathx: LeastSquares requires rows >= cols, got %dx%d", a.rows, a.cols)
	}
	if len(b) != a.rows {
		return nil, fmt.Errorf("mathx: LeastSquares rhs length %d does not match row count %d", len(b), a.rows)
	}
	// Equilibrate: scale each column to unit 2-norm. This tames the squared
	// condition number of the normal equations for fits mixing very
	// different magnitudes (e.g. Lane's noise-parameter regression).
	scaled := a.Clone()
	scale := make([]float64, a.cols)
	for j := 0; j < a.cols; j++ {
		var n2 float64
		for i := 0; i < a.rows; i++ {
			v := a.At(i, j)
			n2 += v * v
		}
		s := math.Sqrt(n2)
		if s == 0 {
			s = 1
		}
		scale[j] = s
		for i := 0; i < a.rows; i++ {
			scaled.Set(i, j, a.At(i, j)/s)
		}
	}
	at := scaled.Transpose()
	ata := at.Mul(scaled)
	// Scale-aware ridge term keeps near-rank-deficient fits stable.
	var trace float64
	for i := 0; i < ata.rows; i++ {
		trace += ata.At(i, i)
	}
	ridge := 1e-14 * trace / float64(ata.rows)
	for i := 0; i < ata.rows; i++ {
		ata.Add(i, i, ridge)
	}
	x, err := SolveR(ata, at.MulVec(b))
	if err != nil {
		return nil, err
	}
	for j := range x {
		x[j] /= scale[j]
	}
	return x, nil
}

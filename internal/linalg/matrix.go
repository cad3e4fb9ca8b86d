// Package linalg provides small dense linear-algebra kernels used by the
// statistics and embedding substrates: matrix arithmetic, Cholesky and LU
// factorizations, triangular and general solves, and a few vector helpers.
//
// Matrices are row-major and sized at construction. The package favors
// clarity and numerical robustness over raw speed; the model matrices in
// this project are at most a few hundred rows, so dense O(n^3) kernels are
// more than fast enough.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular (or not positive definite, for Cholesky) to working
// precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible matrix shapes")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-valued r-by-c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFromRows builds a matrix from row slices. All rows must have the
// same length. The data is copied.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: row %d has %d entries, want %d: %w", i, len(row), c, ErrShape)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add accumulates v into the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice aliasing the matrix storage — the
// allocation-free counterpart of Row for hot read paths. Writing through
// the view mutates the matrix; callers that need isolation use Row.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("linalg: mul %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("linalg: mulvec %dx%d by vector of %d: %w", a.rows, a.cols, len(x), ErrShape)
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		s := 0.0
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// ScaleInPlace multiplies every element of m by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddInPlace accumulates s*b into m. Shapes must match.
func (m *Matrix) AddInPlace(b *Matrix, s float64) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("linalg: add %dx%d and %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	for i := range m.data {
		m.data[i] += s * b.data[i]
	}
	return nil
}

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ.
type Cholesky struct {
	l *Matrix
}

// NewCholesky factors the symmetric positive definite matrix a. Only the
// lower triangle of a is read. It returns ErrSingular if a is not positive
// definite to working precision. It is Refactor on a fresh workspace.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := NewCholeskyWorkspace(a.rows)
	if err := c.Refactor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// LogDet returns the log-determinant of the factored matrix A.
func (c *Cholesky) LogDet() float64 {
	n := c.l.rows
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Log(c.l.data[i*n+i])
	}
	return 2 * s
}

// SolveVec solves A x = b for x given the factorization of A. It is
// SolveVecTo into a fresh vector.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := c.SolveVecTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// Solve solves A X = B column-by-column given the factorization of A. It is
// SolveTo into a fresh matrix.
func (c *Cholesky) Solve(b *Matrix) (*Matrix, error) {
	out := NewMatrix(b.rows, b.cols)
	if err := c.SolveTo(out, b, make([]float64, c.l.rows)); err != nil {
		return nil, err
	}
	return out, nil
}

// Inverse returns A⁻¹ given the factorization of A. It is InverseTo into a
// fresh matrix.
func (c *Cholesky) Inverse() (*Matrix, error) {
	n := c.l.rows
	out := NewMatrix(n, n)
	if err := c.InverseTo(out, make([]float64, n)); err != nil {
		return nil, err
	}
	return out, nil
}

// LU holds an LU factorization with partial pivoting: P A = L U.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64
}

// NewLU factors the square matrix a with partial pivoting.
func NewLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: LU of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1.0
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				maxAbs, p = v, i
			}
		}
		if maxAbs < 1e-300 {
			return nil, fmt.Errorf("linalg: zero pivot at column %d: %w", k, ErrSingular)
		}
		pivot[k] = p
		if p != k {
			sign = -sign
			for j := 0; j < n; j++ {
				lu.data[k*n+j], lu.data[p*n+j] = lu.data[p*n+j], lu.data[k*n+j]
			}
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) * inv
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// SolveVec solves A x = b given the factorization.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU solve with vector of %d, want %d: %w", len(b), n, ErrShape)
	}
	x := make([]float64, n)
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward solve with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f.lu.At(i, k) * x[k]
		}
		x[i] = s
	}
	// Back solve with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.lu.At(i, k) * x[k]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// LogDet returns log|det A| and the sign of det A.
func (f *LU) LogDet() (logAbs, sign float64) {
	sign = f.sign
	for i := 0; i < f.lu.rows; i++ {
		d := f.lu.At(i, i)
		if d < 0 {
			sign = -sign
			d = -d
		}
		logAbs += math.Log(d)
	}
	return logAbs, sign
}

// Dot returns the inner product of two equal-length vectors, accumulating
// left to right. The reslice of b lets the compiler drop the per-element
// bounds checks — the summation order is unchanged.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot of lengths %d and %d", len(a), len(b)))
	}
	b = b[:len(a)]
	s := 0.0
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: axpy of lengths %d and %d", len(x), len(y)))
	}
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += a * xv
	}
}

// AXPYDot computes y += a*x in place and returns Dot(z, y) over the updated
// y, all in one pass. Each y[i] is final before the dot term z[i]*y[i] is
// accumulated and the accumulation runs left to right, so the result is
// bit-identical to AXPY(a, x, y) followed by Dot(z, y) — the fusion exists
// for the orthogonalized power iteration, where every Gram-Schmidt update
// is immediately followed by the projection against the next basis vector.
func AXPYDot(a float64, x, y, z []float64) float64 {
	if len(x) != len(y) || len(z) != len(y) {
		panic(fmt.Sprintf("linalg: axpydot of lengths %d, %d, %d", len(x), len(y), len(z)))
	}
	x = x[:len(y)]
	z = z[:len(y)]
	s := 0.0
	for i := range y {
		v := y[i] + a*x[i]
		y[i] = v
		s += z[i] * v
	}
	return s
}

// Scale multiplies v by a in place.
func Scale(a float64, v []float64) {
	for i := range v {
		v[i] *= a
	}
}

// XtX returns XᵀX for the matrix x.
func XtX(x *Matrix) *Matrix {
	n := x.cols
	out := NewMatrix(n, n)
	for i := 0; i < x.rows; i++ {
		row := x.data[i*x.cols : (i+1)*x.cols]
		for a := 0; a < n; a++ {
			if row[a] == 0 {
				continue
			}
			for b := a; b < n; b++ {
				out.data[a*n+b] += row[a] * row[b]
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < a; b++ {
			out.data[a*n+b] = out.data[b*n+a]
		}
	}
	return out
}

// XtWX returns XᵀWX where w is a diagonal weight vector.
func XtWX(x *Matrix, w []float64) (*Matrix, error) {
	if len(w) != x.rows {
		return nil, fmt.Errorf("linalg: XtWX with %d weights for %d rows: %w", len(w), x.rows, ErrShape)
	}
	n := x.cols
	out := NewMatrix(n, n)
	for i := 0; i < x.rows; i++ {
		wi := w[i]
		if wi == 0 {
			continue
		}
		row := x.data[i*x.cols : (i+1)*x.cols]
		for a := 0; a < n; a++ {
			if row[a] == 0 {
				continue
			}
			wa := wi * row[a]
			for b := a; b < n; b++ {
				out.data[a*n+b] += wa * row[b]
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < a; b++ {
			out.data[a*n+b] = out.data[b*n+a]
		}
	}
	return out, nil
}

// XtV returns Xᵀv for a vector v with one entry per row of x.
func XtV(x *Matrix, v []float64) ([]float64, error) {
	if len(v) != x.rows {
		return nil, fmt.Errorf("linalg: XtV with %d entries for %d rows: %w", len(v), x.rows, ErrShape)
	}
	out := make([]float64, x.cols)
	for i := 0; i < x.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := x.data[i*x.cols : (i+1)*x.cols]
		for j := range row {
			out[j] += row[j] * vi
		}
	}
	return out, nil
}

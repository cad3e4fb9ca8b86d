// Allocation-free variants of the dense kernels. Every function here
// computes exactly the same floating-point operation sequence as its
// allocating counterpart in matrix.go — callers rely on bit-identical
// results when swapping one for the other — and writes into caller-supplied
// storage so per-iteration loops (mixed-model fits, power iteration) run
// without garbage-collector churn. The Cholesky kernels here are the only
// copy of that arithmetic: NewCholesky, SolveVec, Solve and Inverse wrap
// them.
package linalg

import (
	"fmt"
	"math"
)

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// CopyFrom overwrites m with the contents of b. Shapes must match.
func (m *Matrix) CopyFrom(b *Matrix) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("linalg: copy %dx%d from %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	copy(m.data, b.data)
	return nil
}

// TransposeTo writes mᵀ into dst, which must be cols×rows and must not
// alias m.
func (m *Matrix) TransposeTo(dst *Matrix) error {
	if dst.rows != m.cols || dst.cols != m.rows {
		return fmt.Errorf("linalg: transpose %dx%d into %dx%d: %w", m.rows, m.cols, dst.rows, dst.cols, ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.data[j*dst.cols+i] = m.data[i*m.cols+j]
		}
	}
	return nil
}

// MulTo computes dst = a*b without allocating. dst must not alias a or b.
// The accumulation order matches Mul exactly.
func MulTo(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("linalg: mul %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("linalg: mul destination %dx%d for %dx%d product: %w", dst.rows, dst.cols, a.rows, b.cols, ErrShape)
	}
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
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
	return nil
}

// MulVecTo computes dst = a*x without allocating. dst must not alias x.
// The per-row accumulation order matches MulVec exactly.
func MulVecTo(dst []float64, a *Matrix, x []float64) error {
	if a.cols != len(x) {
		return fmt.Errorf("linalg: mulvec %dx%d by vector of %d: %w", a.rows, a.cols, len(x), ErrShape)
	}
	if len(dst) != a.rows {
		return fmt.Errorf("linalg: mulvec destination of %d for %d rows: %w", len(dst), a.rows, ErrShape)
	}
	for i := 0; i < a.rows; i++ {
		s := 0.0
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// AddScaledTo computes dst = y + a*x element-wise. dst may alias y or x.
func AddScaledTo(dst, y []float64, a float64, x []float64) {
	if len(x) != len(y) || len(dst) != len(y) {
		panic(fmt.Sprintf("linalg: addscaled of lengths %d, %d into %d", len(y), len(x), len(dst)))
	}
	for i := range dst {
		dst[i] = y[i] + a*x[i]
	}
}

// NewCholeskyWorkspace returns an order-n Cholesky whose factor storage can
// be (re)filled with Refactor. The factor is all-zero — and the solve and
// determinant methods meaningless — until the first successful Refactor.
func NewCholeskyWorkspace(n int) *Cholesky {
	return &Cholesky{l: NewMatrix(n, n)}
}

// Order returns the order (number of rows) of the factored matrix.
func (c *Cholesky) Order() int { return c.l.rows }

// Refactor factors the symmetric positive definite matrix a into the
// receiver's existing storage, avoiding a per-iteration factor allocation.
// Only the lower triangle of a is read, and only the lower triangle of the
// factor is written (the upper stays zero), so repeated refactorizations
// reuse the same memory. NewCholesky is this kernel on a fresh workspace.
// The loops run over row slices of the raw storage: L[i][j] is a[i][j]
// minus l_ik·l_jk for k = 0, 1, …, j−1 in that order, divided by the pivot.
// On error the factor contents are undefined until the next successful
// Refactor.
func (c *Cholesky) Refactor(a *Matrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("linalg: cholesky of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	if c.l.rows != a.rows {
		return fmt.Errorf("linalg: refactor order %d into workspace of order %d: %w", a.rows, c.l.rows, ErrShape)
	}
	n := a.rows
	ld, ad := c.l.data, a.data
	for j := 0; j < n; j++ {
		lj := ld[j*n : j*n+j] // L[j][0:j]
		d := ad[j*n+j]
		for _, ljk := range lj {
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("linalg: leading minor %d not positive (%.6g): %w", j+1, d, ErrSingular)
		}
		dj := math.Sqrt(d)
		ld[j*n+j] = dj
		for i := j + 1; i < n; i++ {
			// L[i][0:j], resliced to lj's length so the compiler drops
			// the bounds checks on lj[k]; the order is unchanged.
			li := ld[i*n : i*n+j]
			li = li[:len(lj)]
			s := ad[i*n+j]
			for k, lik := range li {
				s -= lik * lj[k]
			}
			ld[i*n+j] = s / dj
		}
	}
	return nil
}

// SolveVecTo solves A x = b into dst without allocating. dst may alias b:
// the forward solve overwrites dst ascending reading only already-written
// entries, and the back solve descends in place. SolveVec is this kernel
// into a fresh vector.
func (c *Cholesky) SolveVecTo(dst, b []float64) error {
	n := c.l.rows
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("linalg: cholesky solve with vector of %d into %d, want %d: %w", len(b), len(dst), n, ErrShape)
	}
	ld := c.l.data
	// Forward solve L y = b, y stored in dst.
	for i := 0; i < n; i++ {
		li := ld[i*n : i*n+i] // L[i][0:i]
		y := dst[:len(li)]    // y[0:i], bounds-check free
		s := b[i]
		for k, lik := range li {
			s -= lik * y[k]
		}
		dst[i] = s / ld[i*n+i]
	}
	// Back solve Lᵀ x = y in place: column i of L below the diagonal is
	// read with stride n.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k, at := i+1, (i+1)*n+i; k < n; k, at = k+1, at+n {
			s -= ld[at] * dst[k]
		}
		dst[i] = s / ld[i*n+i]
	}
	return nil
}

// SolveTo solves A X = B column-by-column into dst using colBuf (length
// ≥ order) as scratch, allocation-free. dst must not alias b. Solve is this
// kernel into a fresh matrix.
func (c *Cholesky) SolveTo(dst, b *Matrix, colBuf []float64) error {
	n := c.l.rows
	if b.rows != n {
		return fmt.Errorf("linalg: cholesky solve %dx%d rhs for order %d: %w", b.rows, b.cols, n, ErrShape)
	}
	if dst.rows != b.rows || dst.cols != b.cols {
		return fmt.Errorf("linalg: cholesky solve destination %dx%d for %dx%d rhs: %w", dst.rows, dst.cols, b.rows, b.cols, ErrShape)
	}
	if len(colBuf) < n {
		return fmt.Errorf("linalg: cholesky solve scratch of %d for order %d: %w", len(colBuf), n, ErrShape)
	}
	col := colBuf[:n]
	m := b.cols
	for j := 0; j < m; j++ {
		for i := range col {
			col[i] = b.data[i*m+j]
		}
		if err := c.SolveVecTo(col, col); err != nil {
			return err
		}
		for i, v := range col {
			dst.data[i*m+j] = v
		}
	}
	return nil
}

// InverseTo writes A⁻¹ into dst using colBuf (length ≥ order) as scratch,
// allocation-free. Column j solves against the j-th unit vector with
// SolveVecTo; a caller that needs only some columns of A⁻¹ gets the same
// bits by doing that solve for just those columns. Inverse is this kernel
// into a fresh matrix.
func (c *Cholesky) InverseTo(dst *Matrix, colBuf []float64) error {
	n := c.l.rows
	if dst.rows != n || dst.cols != n {
		return fmt.Errorf("linalg: inverse destination %dx%d for order %d: %w", dst.rows, dst.cols, n, ErrShape)
	}
	if len(colBuf) < n {
		return fmt.Errorf("linalg: inverse scratch of %d for order %d: %w", len(colBuf), n, ErrShape)
	}
	col := colBuf[:n]
	for j := 0; j < n; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		if err := c.SolveVecTo(col, col); err != nil {
			return err
		}
		for i, v := range col {
			dst.data[i*n+j] = v
		}
	}
	return nil
}

package linalg

import (
	"fmt"
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the randomized equivalence
// checks reproduce exactly across runs without touching math/rand.
type lcg struct{ s uint64 }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

// float returns a value in [-1, 1).
func (r *lcg) float() float64 {
	return float64(int64(r.next()>>11))/float64(1<<52) - 1
}

func randMatrix(r *lcg, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.float())
		}
	}
	return m
}

// randSparseMatrix fills roughly the given fraction of entries, leaving the
// rest exactly zero — the structure CSRFromDense prunes.
func randSparseMatrix(r *lcg, rows, cols int, density float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if float64(r.next()%1000)/1000 < density {
				m.Set(i, j, r.float())
			}
		}
	}
	return m
}

func randVec(r *lcg, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.float()
	}
	return v
}

// randSPD builds a well-conditioned symmetric positive definite matrix as
// BᵀB + n·I.
func randSPD(r *lcg, n int) *Matrix {
	b := randMatrix(r, n, n)
	m := XtX(b)
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

func bitEqualVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func bitEqualMat(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		bitEqualVec(t, name, got.RowView(i), want.RowView(i))
	}
}

// TestCSRMulVecBitIdentical proves the sparse matvec reproduces the dense
// result bit-for-bit: skipping exact-zero entries only removes ±0 terms
// from each row's left-to-right accumulation, which cannot change an IEEE
// round-to-nearest sum.
func TestCSRMulVecBitIdentical(t *testing.T) {
	r := &lcg{s: 1}
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {17, 9}, {40, 40}} {
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			m := randSparseMatrix(r, dims[0], dims[1], density)
			sp := CSRFromDense(m)
			x := randVec(r, dims[1])
			want, err := MulVec(m, x)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, dims[0])
			if err := sp.MulVecTo(got, x); err != nil {
				t.Fatal(err)
			}
			bitEqualVec(t, "csr mulvec", got, want)
			for i := 0; i < dims[0]; i++ {
				if math.Float64bits(sp.RowDot(i, x)) != math.Float64bits(want[i]) {
					t.Fatalf("RowDot(%d) = %v, want %v", i, sp.RowDot(i, x), want[i])
				}
			}
		}
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	r := &lcg{s: 2}
	m := randSparseMatrix(r, 12, 7, 0.25)
	sp := CSRFromDense(m)
	bitEqualMat(t, "csr dense round-trip", sp.Dense(), m)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if math.Float64bits(sp.At(i, j)) != math.Float64bits(m.At(i, j)) {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, sp.At(i, j), m.At(i, j))
			}
		}
	}
}

// TestMulToBitIdentical checks the in-place dense kernels against their
// allocating counterparts on randomized inputs.
func TestMulToBitIdentical(t *testing.T) {
	r := &lcg{s: 3}
	a := randSparseMatrix(r, 9, 13, 0.6) // zeros exercise the skip branch
	b := randMatrix(r, 13, 5)
	want, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := NewMatrix(9, 5)
	got.Set(0, 0, 42) // MulTo must overwrite stale contents
	if err := MulTo(got, a, b); err != nil {
		t.Fatal(err)
	}
	bitEqualMat(t, "MulTo", got, want)
}

func TestMulVecToBitIdentical(t *testing.T) {
	r := &lcg{s: 4}
	a := randMatrix(r, 11, 6)
	x := randVec(r, 6)
	want, err := MulVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 11)
	if err := MulVecTo(got, a, x); err != nil {
		t.Fatal(err)
	}
	bitEqualVec(t, "MulVecTo", got, want)
}

func TestTransposeToBitIdentical(t *testing.T) {
	r := &lcg{s: 5}
	a := randMatrix(r, 8, 3)
	dst := NewMatrix(3, 8)
	if err := a.TransposeTo(dst); err != nil {
		t.Fatal(err)
	}
	bitEqualMat(t, "TransposeTo", dst, a.T())
}

func TestAddScaledTo(t *testing.T) {
	r := &lcg{s: 6}
	y := randVec(r, 10)
	x := randVec(r, 10)
	want := make([]float64, 10)
	copy(want, y)
	AXPY(-0.5, x, want)
	got := make([]float64, 10)
	AddScaledTo(got, y, -0.5, x)
	bitEqualVec(t, "AddScaledTo", got, want)
	// Aliased destination.
	aliased := make([]float64, 10)
	copy(aliased, y)
	AddScaledTo(aliased, aliased, -0.5, x)
	bitEqualVec(t, "AddScaledTo aliased", aliased, want)
}

// refCholesky is the textbook At/Set Cholesky the raw-storage kernels
// replaced. It is kept here, independent of the package's kernels, as the
// reference they must match bit-for-bit.
func refCholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows()
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/dj)
		}
	}
	return l, nil
}

// refSolveVec solves L Lᵀ x = b with separate forward and back vectors.
func refSolveVec(l *Matrix, b []float64) []float64 {
	n := l.Rows()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// refSolve solves L Lᵀ X = B column by column.
func refSolve(l, b *Matrix) *Matrix {
	out := NewMatrix(b.Rows(), b.Cols())
	col := make([]float64, b.Rows())
	for j := 0; j < b.Cols(); j++ {
		for i := range col {
			col[i] = b.At(i, j)
		}
		for i, v := range refSolveVec(l, col) {
			out.Set(i, j, v)
		}
	}
	return out
}

func refLogDet(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows(); i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// glmmShapedSPD builds a matrix with the structure of the logistic mixed
// model's PIRLS Hessian [X Z]ᵀW[X Z] + blkdiag(0, D⁻¹): dense β rows over p
// fixed effects, diagonal user and question blocks, and a user×question
// cross block that is exactly zero wherever a user skipped a question.
func glmmShapedSPD(r *lcg, p, users, questions int) *Matrix {
	dim := p + users + questions
	h := NewMatrix(dim, dim)
	x := make([]float64, p)
	for u := 0; u < users; u++ {
		for q := 0; q < questions; q++ {
			if r.next()%4 == 0 {
				continue // skipped question: no observation
			}
			x[0] = 1
			for j := 1; j < p; j++ {
				x[j] = float64(r.next() % 3) // 0 leaves exact zeros in X
			}
			w := 0.25 * (r.float() + 1.01) / 2.01
			cols := []int{p + u, p + users + q}
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					h.Add(a, b, w*x[a]*x[b])
				}
				for _, c := range cols {
					h.Add(a, c, w*x[a])
					h.Add(c, a, w*x[a])
				}
			}
			for _, ca := range cols {
				for _, cb := range cols {
					h.Add(ca, cb, w)
				}
			}
		}
	}
	for c := p; c < dim; c++ {
		h.Add(c, c, 1/(0.3+(r.float()+1)/2))
	}
	return h
}

// TestRefactorBitIdentical proves the raw-storage Cholesky kernels, and
// the allocating wrappers over them, reproduce the reference At/Set
// arithmetic bit-for-bit. Each workspace first factors a different matrix,
// so stale lower-triangle contents must be fully overwritten. Order 52 with
// block structure is the shape of the study's Table I GLMM Hessian (4 fixed
// effects, 40 users, 8 questions).
func TestRefactorBitIdentical(t *testing.T) {
	r := &lcg{s: 7}
	type tc struct {
		name string
		a    *Matrix
	}
	var cases []tc
	for _, n := range []int{1, 4, 12, 52} {
		cases = append(cases, tc{fmt.Sprintf("dense order %d", n), randSPD(r, n)})
	}
	cases = append(cases, tc{"GLMM-shaped order 52", glmmShapedSPD(r, 4, 40, 8)})
	for _, c := range cases {
		n := c.a.Rows()
		wantL, err := refCholesky(c.a)
		if err != nil {
			t.Fatalf("%s: reference factor: %v", c.name, err)
		}
		ws := NewCholeskyWorkspace(n)
		if err := ws.Refactor(randSPD(r, n)); err != nil {
			t.Fatal(err)
		}
		if err := ws.Refactor(c.a); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCholesky(c.a)
		if err != nil {
			t.Fatal(err)
		}
		bitEqualMat(t, c.name+": Refactor L", ws.L(), wantL)
		bitEqualMat(t, c.name+": NewCholesky L", fresh.L(), wantL)
		wantLogDet := refLogDet(wantL)
		for _, got := range []float64{ws.LogDet(), fresh.LogDet()} {
			if math.Float64bits(got) != math.Float64bits(wantLogDet) {
				t.Fatalf("%s: LogDet = %v, want %v", c.name, got, wantLogDet)
			}
		}

		b := randVec(r, n)
		want := refSolveVec(wantL, b)
		got := make([]float64, n)
		if err := ws.SolveVecTo(got, b); err != nil {
			t.Fatal(err)
		}
		bitEqualVec(t, c.name+": SolveVecTo", got, want)
		aliased := append([]float64(nil), b...)
		if err := ws.SolveVecTo(aliased, aliased); err != nil {
			t.Fatal(err)
		}
		bitEqualVec(t, c.name+": SolveVecTo aliased", aliased, want)
		got, err = fresh.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		bitEqualVec(t, c.name+": SolveVec", got, want)

		rhs := randSparseMatrix(r, n, 3, 0.5)
		wantM := refSolve(wantL, rhs)
		gotM := NewMatrix(n, 3)
		colBuf := make([]float64, n)
		if err := ws.SolveTo(gotM, rhs, colBuf); err != nil {
			t.Fatal(err)
		}
		bitEqualMat(t, c.name+": SolveTo", gotM, wantM)
		if gotM, err = fresh.Solve(rhs); err != nil {
			t.Fatal(err)
		}
		bitEqualMat(t, c.name+": Solve", gotM, wantM)

		eye := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			eye.Set(i, i, 1)
		}
		wantInv := refSolve(wantL, eye)
		gotInv := NewMatrix(n, n)
		if err := ws.InverseTo(gotInv, colBuf); err != nil {
			t.Fatal(err)
		}
		bitEqualMat(t, c.name+": InverseTo", gotInv, wantInv)
		if gotInv, err = fresh.Inverse(); err != nil {
			t.Fatal(err)
		}
		bitEqualMat(t, c.name+": Inverse", gotInv, wantInv)
	}
}

func TestRefactorRejectsNonSPD(t *testing.T) {
	ws := NewCholeskyWorkspace(2)
	bad := NewMatrix(2, 2) // all zeros: first leading minor not positive
	if err := ws.Refactor(bad); err == nil {
		t.Fatal("Refactor accepted a singular matrix")
	}
	// The workspace must recover on the next SPD refactor.
	r := &lcg{s: 8}
	good := randSPD(r, 2)
	if err := ws.Refactor(good); err != nil {
		t.Fatalf("Refactor after failure: %v", err)
	}
	fresh, err := NewCholesky(good)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualMat(t, "Refactor after failure", ws.L(), fresh.L())
	if _, err := NewCholesky(bad); err == nil {
		t.Fatal("NewCholesky accepted a singular matrix")
	}
}

func TestCopyFromZero(t *testing.T) {
	r := &lcg{s: 9}
	a := randMatrix(r, 4, 6)
	b := NewMatrix(4, 6)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	bitEqualMat(t, "CopyFrom", b, a)
	b.Zero()
	for i := 0; i < 4; i++ {
		for _, v := range b.RowView(i) {
			if v != 0 {
				t.Fatal("Zero left a nonzero entry")
			}
		}
	}
	if err := b.CopyFrom(NewMatrix(3, 6)); err == nil {
		t.Fatal("CopyFrom accepted a shape mismatch")
	}
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(2, 2, []int{0, 1, 2}, []int{0, 0}, []float64{1, 1}); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	cases := []struct {
		name   string
		rowPtr []int
		colIdx []int
		val    []float64
	}{
		{"short rowPtr", []int{0, 2}, []int{0, 1}, []float64{1, 1}},
		{"descending columns", []int{0, 2, 2}, []int{1, 0}, []float64{1, 1}},
		{"duplicate columns", []int{0, 2, 2}, []int{0, 0}, []float64{1, 1}},
		{"column out of range", []int{0, 1, 2}, []int{0, 2}, []float64{1, 1}},
		{"rowPtr not monotone", []int{0, 2, 1}, []int{0, 1}, []float64{1, 1}},
		{"val length mismatch", []int{0, 1, 2}, []int{0, 1}, []float64{1}},
	}
	for _, c := range cases {
		if _, err := NewCSR(2, 2, c.rowPtr, c.colIdx, c.val); err == nil {
			t.Fatalf("%s: invalid CSR accepted", c.name)
		}
	}
}

// TestInPlaceKernelAllocs pins the allocation-free contract of the hot
// kernels the mixed-model and embedding loops rely on.
func TestInPlaceKernelAllocs(t *testing.T) {
	r := &lcg{s: 10}
	n := 8
	spd := randSPD(r, n)
	ws := NewCholeskyWorkspace(n)
	a := randMatrix(r, n, n)
	b := randMatrix(r, n, n)
	dstM := NewMatrix(n, n)
	x := randVec(r, n)
	dstV := make([]float64, n)
	colBuf := make([]float64, n)
	sp := CSRFromDense(randSparseMatrix(r, n, n, 0.3))

	checks := []struct {
		name string
		fn   func()
	}{
		{"MulTo", func() { MulTo(dstM, a, b) }},
		{"MulVecTo", func() { MulVecTo(dstV, a, x) }},
		{"AddScaledTo", func() { AddScaledTo(dstV, x, 2, x) }},
		{"Refactor", func() { ws.Refactor(spd) }},
		{"SolveVecTo", func() { ws.SolveVecTo(dstV, x) }},
		{"InverseTo", func() { ws.InverseTo(dstM, colBuf) }},
		{"CSR.MulVecTo", func() { sp.MulVecTo(dstV, x) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(100, c.fn); avg != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", c.name, avg)
		}
	}
}

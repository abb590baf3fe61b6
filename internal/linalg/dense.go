package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. The zero value is an empty matrix; use
// NewDense to allocate.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimensions")
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFromRows builds a matrix from row slices, copying the data.
func NewDenseFromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the entry at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the entry at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Inc adds v to the entry at (i, j).
func (m *Dense) Inc(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// MulVec returns m * x as a fresh vector (allocating wrapper over MulVecTo).
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec got %d, want %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecT returns mᵀ * x as a fresh vector (allocating wrapper over
// MulVecTTo).
func (m *Dense) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("linalg: MulVecT got %d, want %d", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	m.MulVecTTo(out, x)
	return out
}

// Mul returns m * b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic("linalg: Mul dimension mismatch")
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Solve solves m*x = b by Gaussian elimination with partial pivoting.
// m must be square; it is not modified. Returns ErrSingular if the matrix is
// numerically singular.
func (m *Dense) Solve(b []float64) ([]float64, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("linalg: Solve on %dx%d matrix: %w", m.rows, m.cols, ErrDimension)
	}
	if len(b) != m.rows {
		return nil, ErrDimension
	}
	n := m.rows
	a := m.Clone()
	x := Clone(b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vi, vp := a.At(col, j), a.At(pivot, j)
				a.Set(col, j, vp)
				a.Set(pivot, j, vi)
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Inc(r, j, -f*a.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// ErrSingular is returned when a solve hits a numerically singular matrix.
var ErrSingular = fmt.Errorf("linalg: singular matrix")

// Cholesky computes the lower-triangular Cholesky factor of a symmetric
// positive-definite matrix. Returns ErrSingular when the matrix is not
// (numerically) positive definite.
func (m *Dense) Cholesky() (*Dense, error) {
	if m.rows != m.cols {
		return nil, ErrDimension
	}
	l := NewDense(m.rows, m.rows)
	if err := m.choleskyTo(l); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyTo writes the lower Cholesky factor of the square m into the
// lower triangle of l (same size), reading only entries it wrote in this
// call, so l may hold an earlier factor; l's upper triangle is never
// touched.
func (m *Dense) choleskyTo(l *Dense) error {
	n := m.rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return nil
}

// CholSolve solves L Lᵀ x = b given a lower Cholesky factor L.
func CholSolve(l *Dense, b []float64) []float64 {
	y := Clone(b)
	CholSolveInPlace(l, y)
	return y
}

// CholSolveInPlace solves L Lᵀ x = y in place (y holds b on entry and x on
// return), the allocation-free form of CholSolve.
func CholSolveInPlace(l *Dense, y []float64) {
	n := l.rows
	for i := 0; i < n; i++ {
		s := y[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
}

// GramFactor is the one dense factorization of G = mᵀ·diag(d)·m: GramTo
// and then Cholesky into two kept Cols×Cols buffers, and CholSolve for
// every solve against that d. When Cholesky fails (G only semidefinite,
// e.g. a bound hit exactly by degenerate weights), Solve falls back to
// pivoted Gaussian elimination on G.
type GramFactor struct {
	m    *CSR
	gram *Dense
	chol *Dense // Cholesky factor of gram, valid when cholOK
	// cholOK reports whether the last Factor's Cholesky succeeded.
	cholOK bool
}

// NewGramFactor allocates the Gram and factor buffers for m.
func NewGramFactor(m *CSR) *GramFactor {
	return &GramFactor{m: m, gram: NewDense(m.cols, m.cols), chol: NewDense(m.cols, m.cols)}
}

// Factor assembles G for d and factorizes it, reporting whether Cholesky
// succeeded; when it did not, Solve uses Gaussian elimination.
func (f *GramFactor) Factor(d []float64) bool {
	f.m.GramTo(f.gram, d)
	f.cholOK = f.gram.choleskyTo(f.chol) == nil
	return f.cholOK
}

// Solve answers G·x = y for the d of the last Factor.
func (f *GramFactor) Solve(y []float64) ([]float64, error) {
	if !f.cholOK {
		return f.gram.Solve(y)
	}
	return CholSolve(f.chol, y), nil
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// QuadForm returns xᵀ m x.
func (m *Dense) QuadForm(x []float64) float64 {
	return Dot(x, m.MulVec(x))
}

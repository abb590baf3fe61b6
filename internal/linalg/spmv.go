package linalg

import "fmt"

// MulVecTo computes dst = m·x without allocating, summing each row in
// column order.
func (m *CSR) MulVecTo(dst, x []float64) {
	checkApply(m.rows, m.cols, dst, x)
	for r := 0; r < m.rows; r++ {
		var s float64
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		dst[r] = s
	}
}

// GramDiagTo writes diag(mᵀ·diag(d)·m) into dst (length Cols) in O(nnz) —
// the diagonal of the csr-pcg backend's forest preconditioner.
func (m *CSR) GramDiagTo(dst, d []float64) {
	if len(d) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: CSR GramDiagTo got dst=%d d=%d, want dst=%d d=%d", len(dst), len(d), m.cols, m.rows))
	}
	for j := range dst {
		dst[j] = 0
	}
	for r := 0; r < m.rows; r++ {
		dr := d[r]
		if dr == 0 {
			continue
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			v := m.vals[k]
			dst[m.colIdx[k]] += dr * v * v
		}
	}
}

// GramTo writes the dense Cols×Cols matrix mᵀ·diag(d)·m into g,
// overwriting it. Each row r with d[r] ≠ 0 adds d[r]·v_p·v_q to the cell
// of every pair (p, q) of its entries, so every cell sums its terms in row
// order: the assembly step of GramFactor.
func (m *CSR) GramTo(g *Dense, d []float64) {
	if len(d) != m.rows || g.rows != m.cols || g.cols != m.cols {
		panic(fmt.Sprintf("linalg: CSR GramTo got g=%dx%d d=%d, want g=%dx%d d=%d", g.rows, g.cols, len(d), m.cols, m.cols, m.rows))
	}
	clear(g.data)
	for r := 0; r < m.rows; r++ {
		dr := d[r]
		if dr == 0 {
			continue
		}
		lo, hi := m.rowPtr[r], m.rowPtr[r+1]
		for p := lo; p < hi; p++ {
			row := g.data[m.colIdx[p]*g.cols:]
			v := dr * m.vals[p]
			for q := lo; q < hi; q++ {
				row[m.colIdx[q]] += v * m.vals[q]
			}
		}
	}
}

// GramMulVecTo computes dst = mᵀ·diag(d)·m·x in one pass over the rows
// without allocating: each row's sum (column order, as in MulVecTo) is
// scaled by d[r] and, unless zero, scattered as in MulVecTTo. So it gives
// the bits of the three products applied one after another.
func (m *CSR) GramMulVecTo(dst, d, x []float64) {
	if len(d) != m.rows || len(dst) != m.cols || len(x) != m.cols {
		panic(fmt.Sprintf("linalg: CSR GramMulVecTo got dst=%d d=%d x=%d, want dst=%d d=%d x=%d", len(dst), len(d), len(x), m.cols, m.rows, m.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for r := 0; r < m.rows; r++ {
		lo, hi := m.rowPtr[r], m.rowPtr[r+1]
		var s float64
		for k := lo; k < hi; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		s = d[r] * s
		if s == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			dst[m.colIdx[k]] += m.vals[k] * s
		}
	}
}

// MulVecTTo computes dst = mᵀ·x without allocating, scattering row by row.
func (m *CSR) MulVecTTo(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: CSR MulVecTTo got dst=%d x=%d, want dst=%d x=%d", len(dst), len(x), m.cols, m.rows))
	}
	for j := range dst {
		dst[j] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			dst[m.colIdx[k]] += m.vals[k] * xr
		}
	}
}

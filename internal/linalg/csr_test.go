package linalg

import (
	"math/rand"
	"testing"
)

func randomTriples(rows, cols, nnz int, rnd *rand.Rand) []Triple {
	ts := make([]Triple, nnz)
	for i := range ts {
		ts[i] = Triple{Row: rnd.Intn(rows), Col: rnd.Intn(cols), Val: rnd.NormFloat64()}
	}
	return ts
}

func TestCSRMatchesDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rnd.Intn(12), 1+rnd.Intn(12)
		ts := randomTriples(rows, cols, rnd.Intn(40), rnd)
		csr := NewCSR(rows, cols, ts)
		dense := csr.Dense()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rnd.NormFloat64()
		}
		a, b := csr.MulVec(x), dense.MulVec(x)
		for i := range a {
			if !almostEq(a[i], b[i], 1e-12) {
				t.Fatalf("MulVec mismatch at %d: %v vs %v", i, a[i], b[i])
			}
		}
		y := make([]float64, rows)
		for i := range y {
			y[i] = rnd.NormFloat64()
		}
		at, bt := csr.MulVecT(y), dense.MulVecT(y)
		for i := range at {
			if !almostEq(at[i], bt[i], 1e-12) {
				t.Fatalf("MulVecT mismatch at %d", i)
			}
		}
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	csr := NewCSR(2, 2, []Triple{{0, 0, 1}, {0, 0, 2}, {1, 1, -1}, {1, 1, 1}})
	if got := csr.At(0, 0); got != 3 {
		t.Fatalf("At(0,0) = %v, want 3", got)
	}
	// Entries that cancel exactly are dropped.
	if got := csr.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v, want 0", got)
	}
	if len(csr.vals) != 1 {
		t.Fatalf("NNZ = %d, want 1", len(csr.vals))
	}
}

func TestCSRDiagAndVisit(t *testing.T) {
	csr := NewCSR(3, 3, []Triple{{0, 0, 2}, {1, 1, 5}, {1, 2, -1}, {2, 0, 4}})
	if csr.At(0, 0) != 2 || csr.At(1, 1) != 5 || csr.At(2, 2) != 0 {
		t.Fatalf("diagonal = %v %v %v", csr.At(0, 0), csr.At(1, 1), csr.At(2, 2))
	}
	cols, vals := csr.Row(1)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 || vals[0] != 5 || vals[1] != -1 {
		t.Fatalf("Row(1) = %v %v", cols, vals)
	}
}

func TestLaplacianAgainstQuadForm(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	n := 8
	var edges []WEdge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rnd.Float64() < 0.4 {
				edges = append(edges, WEdge{U: u, V: v, W: 1 + rnd.Float64()*4})
			}
		}
	}
	l := LaplacianCSR(n, edges)
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rnd.NormFloat64()
		}
		if a, b := l.QuadForm(x), LaplacianQuadForm(edges, x); !almostEq(a, b, 1e-10) {
			t.Fatalf("quadform mismatch: %v vs %v", a, b)
		}
	}
	// Row sums of a Laplacian vanish: L·1 = 0.
	ones := Ones(n)
	if nrm := Norm2(l.MulVec(ones)); nrm > 1e-10 {
		t.Fatalf("L*1 = %v, want 0", nrm)
	}
}

func TestIncidenceFactorsLaplacian(t *testing.T) {
	edges := []WEdge{{0, 1, 2}, {1, 2, 3}, {0, 2, 1}}
	n := 3
	b := IncidenceCSR(n, edges)
	l := LaplacianCSR(n, edges)
	// L = Bᵀ W B.
	x := []float64{0.3, -1.2, 0.7}
	bx := b.MulVec(x)
	for i := range bx {
		bx[i] *= edges[i].W
	}
	btwbx := b.MulVecT(bx)
	lx := l.MulVec(x)
	for i := range lx {
		if !almostEq(lx[i], btwbx[i], 1e-12) {
			t.Fatalf("BᵀWB x != L x at %d: %v vs %v", i, btwbx[i], lx[i])
		}
	}
}

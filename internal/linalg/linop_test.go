package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func randomCSR(rows, cols int, density float64, rnd *rand.Rand) *CSR {
	var ts []Triple
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rnd.Float64() < density {
				ts = append(ts, Triple{Row: r, Col: c, Val: rnd.NormFloat64()})
			}
		}
	}
	// Guarantee at least one entry per row so no row is trivially zero.
	for r := 0; r < rows; r++ {
		ts = append(ts, Triple{Row: r, Col: rnd.Intn(cols), Val: rnd.NormFloat64()})
	}
	return NewCSR(rows, cols, ts)
}

func randomVec(n int, rnd *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rnd.NormFloat64()
	}
	return x
}

func TestMulVecToMatchesMulVec(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	m := randomCSR(40, 30, 0.2, rnd)
	x := randomVec(30, rnd)
	want := m.MulVec(x)
	got := make([]float64, 40)
	m.MulVecTo(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
		}
	}
	y := randomVec(40, rnd)
	wantT := m.MulVecT(y)
	gotT := make([]float64, 30)
	m.MulVecTTo(gotT, y)
	for i := range wantT {
		if gotT[i] != wantT[i] {
			t.Fatalf("transpose col %d: %v vs %v", i, gotT[i], wantT[i])
		}
	}
}

// GramMulVecTo must match the dense reference AᵀDA, GramDiagTo its
// diagonal, and GramTo the reference itself bit for bit (both sum each
// cell in row order), over stale contents.
func TestGramMulVecToMatchesDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	a := randomCSR(20, 9, 0.3, rnd)
	d := make([]float64, 20)
	for i := range d {
		d[i] = 0.1 + rnd.Float64()
	}
	ad := a.Dense()
	gram := NewDense(9, 9)
	for r := 0; r < 20; r++ {
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				gram.Inc(i, j, d[r]*ad.At(r, i)*ad.At(r, j))
			}
		}
	}
	for trial := 0; trial < 5; trial++ {
		x := randomVec(9, rnd)
		got := make([]float64, 9)
		a.GramMulVecTo(got, d, x)
		want := gram.MulVec(x)
		for i := range got {
			if diff := got[i] - want[i]; diff > 1e-10 || diff < -1e-10 {
				t.Fatalf("trial %d entry %d: AᵀDA·x %v vs dense %v", trial, i, got[i], want[i])
			}
		}
	}
	assembled := NewDense(9, 9)
	for i := range assembled.data {
		assembled.data[i] = math.NaN()
	}
	a.GramTo(assembled, d)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if got, want := assembled.At(i, j), gram.At(i, j); got != want {
				t.Fatalf("GramTo (%d, %d): %v, dense reference %v", i, j, got, want)
			}
		}
	}
	diag := make([]float64, 9)
	a.GramDiagTo(diag, d)
	for i := range diag {
		if diff := diag[i] - gram.At(i, i); diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("diag %d: %v vs %v", i, diag[i], gram.At(i, i))
		}
	}
}

// GramMulVecTo must give the bits of Aᵀ(D(Ax)) applied as three products,
// on matrices with negative entries and one-nonzero rows, zero and
// negative dᵣ, and x with zero entries (rows whose sum is exactly 0).
func TestGramMulVecToBitIdenticalToThreeProducts(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 5+rnd.Intn(20), 2+rnd.Intn(8)
		var ts []Triple
		for r := 0; r < rows; r++ {
			ts = append(ts, Triple{Row: r, Col: rnd.Intn(cols), Val: rnd.NormFloat64()})
			if r%3 != 0 { // every third row keeps one nonzero
				ts = append(ts, Triple{Row: r, Col: rnd.Intn(cols), Val: rnd.NormFloat64()})
				ts = append(ts, Triple{Row: r, Col: rnd.Intn(cols), Val: -1})
			}
		}
		a := NewCSR(rows, cols, ts)
		d := randomVec(rows, rnd)
		for r := 0; r < rows; r += 4 {
			d[r] = 0
		}
		x := randomVec(cols, rnd)
		x[rnd.Intn(cols)] = 0
		if trial%2 == 0 {
			for j := range x {
				x[j] = float64(rnd.Intn(3) - 1) // many exact zero row sums
			}
		}
		ax := make([]float64, rows)
		a.MulVecTo(ax, x)
		for r := range ax {
			ax[r] = d[r] * ax[r]
		}
		want := make([]float64, cols)
		a.MulVecTTo(want, ax)
		got := make([]float64, cols)
		a.GramMulVecTo(got, d, x)
		for j := range got {
			if got[j] != want[j] || math.Signbit(got[j]) != math.Signbit(want[j]) {
				t.Fatalf("trial %d entry %d: fused %v, three products %v", trial, j, got[j], want[j])
			}
		}
	}
}

func TestCSRTransposeMatchesDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	a := randomCSR(15, 7, 0.3, rnd)
	at, ad := a.Transpose(), a.Dense()
	if at.Rows() != 7 || at.Cols() != 15 || len(at.vals) != len(a.vals) {
		t.Fatalf("transpose is %dx%d with %d nonzeros, want 7x15 with %d", at.Rows(), at.Cols(), len(at.vals), len(a.vals))
	}
	for j := 0; j < 7; j++ {
		rows, vals := at.Row(j)
		for k := range rows {
			if k > 0 && rows[k] <= rows[k-1] {
				t.Fatalf("column %d: rows not ascending: %v", j, rows)
			}
			if vals[k] != ad.At(rows[k], j) {
				t.Fatalf("entry (%d,%d): %v vs %v", rows[k], j, vals[k], ad.At(rows[k], j))
			}
		}
		for i := 0; i < 15; i++ {
			if at.At(j, i) != ad.At(i, j) {
				t.Fatalf("entry (%d,%d): %v vs %v", i, j, at.At(j, i), ad.At(i, j))
			}
		}
	}
}

func TestLaplacianOpMatchesCSR(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	n := 14
	var edges []WEdge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rnd.Float64() < 0.3 {
				edges = append(edges, WEdge{U: u, V: v, W: 0.5 + rnd.Float64()})
			}
		}
	}
	op := LaplacianOp{N: n, Edges: edges}
	l := LaplacianCSR(n, edges)
	x := randomVec(n, rnd)
	got := make([]float64, n)
	op.MulVecTo(got, x)
	want := l.MulVec(x)
	for i := range got {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("entry %d: edge-wise %v vs CSR %v", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { op.MulVecTo(got, x) }); allocs != 0 {
		t.Fatalf("LaplacianOp apply allocates %v times", allocs)
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	b1 := ws.Get(64)
	for i := range b1 {
		b1[i] = 7
	}
	ws.Put(b1)
	b2 := ws.Get(32)
	if cap(b2) < 64 {
		t.Fatalf("workspace did not reuse the 64-cap buffer (cap %d)", cap(b2))
	}
	// Nil workspace must degrade to plain allocation.
	var nilWS *Workspace
	b3 := nilWS.Get(8)
	if len(b3) != 8 {
		t.Fatal("nil workspace Get failed")
	}
	nilWS.Put(b3)
}

// CGTo must solve an SPD system, and a workspace reused across solves must
// give the same bits as a fresh one.
func TestCGToMatchesCG(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	n := 24
	// SPD matrix AᵀA + I.
	a := randomCSR(n, n, 0.3, rnd)
	ones := Ones(n)
	spd := FuncOp(func(dst, x []float64) {
		a.GramMulVecTo(dst, ones, x)
		for i := range dst {
			dst[i] += x[i]
		}
	})
	ws := NewWorkspace()
	for solve := 0; solve < 2; solve++ {
		b := randomVec(n, rnd)
		want := make([]float64, n)
		if _, err := CGTo(context.Background(), want, spd, b, 1e-12, 10*n, nil, NewWorkspace()); err != nil {
			t.Fatal(err)
		}
		ax := make([]float64, n)
		spd.MulVecTo(ax, want)
		if r := Norm2(Sub(ax, b)); r > 1e-9*Norm2(b) {
			t.Fatalf("solve %d: residual %g", solve, r)
		}
		got := make([]float64, n)
		if _, err := CGTo(context.Background(), got, spd, b, 1e-12, 10*n, nil, ws); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("solve %d entry %d: reused workspace %v vs fresh %v", solve, i, got[i], want[i])
			}
		}
	}
}

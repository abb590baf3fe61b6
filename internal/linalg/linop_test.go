package linalg

import (
	"context"
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

// Composition of LinOps must match the dense reference product.
func TestComposeMatchesDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	a := randomCSR(12, 8, 0.4, rnd) // 12x8
	d := randomVec(12, rnd)         // diag 12x12
	ws := NewWorkspace()
	// Op = Aᵀ · diag(d) · A : 8x8.
	op := Compose(ws, TransposeOp{A: a}, DiagOp{D: d}, a)
	ad := a.Dense()
	ref := ad.Transpose()
	scaled := NewDense(12, 8)
	for i := 0; i < 12; i++ {
		for j := 0; j < 8; j++ {
			scaled.Set(i, j, d[i]*ad.At(i, j))
		}
	}
	refM := ref.Mul(scaled) // 8x8
	if r, c := op.Dims(); r != 8 || c != 8 {
		t.Fatalf("composed dims %dx%d, want 8x8", r, c)
	}
	for trial := 0; trial < 5; trial++ {
		x := randomVec(8, rnd)
		got := make([]float64, 8)
		op.MulVecTo(got, x)
		want := refM.MulVec(x)
		for i := range got {
			if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("trial %d entry %d: composed %v vs dense %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestComposedGramMatchesDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	a := randomCSR(20, 9, 0.3, rnd)
	d := make([]float64, 20)
	for i := range d {
		d[i] = 0.1 + rnd.Float64()
	}
	// The csr-cg backend's operator shape: AᵀDA as a composition.
	op := Compose(NewWorkspace(), TransposeOp{A: a}, DiagOp{D: d}, a)
	// Dense reference AᵀDA.
	ad := a.Dense()
	gram := NewDense(9, 9)
	for r := 0; r < 20; r++ {
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				gram.Inc(i, j, d[r]*ad.At(r, i)*ad.At(r, j))
			}
		}
	}
	x := randomVec(9, rnd)
	got := make([]float64, 9)
	op.MulVecTo(got, x)
	want := gram.MulVec(x)
	for i := range got {
		if diff := got[i] - want[i]; diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("entry %d: composed Gram %v vs dense %v", i, got[i], want[i])
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
	gram := Compose(NewWorkspace(), TransposeOp{A: a}, a)
	spd := FuncOp{R: n, C: n, Apply: func(dst, x []float64) {
		gram.MulVecTo(dst, x)
		for i := range dst {
			dst[i] += x[i]
		}
	}}
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

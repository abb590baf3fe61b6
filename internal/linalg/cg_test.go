package linalg

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func TestCGOnSPD(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	n := 15
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rnd.NormFloat64())
		}
	}
	spd := a.Transpose().Mul(a)
	for i := 0; i < n; i++ {
		spd.Inc(i, i, 1)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rnd.NormFloat64()
	}
	b := spd.MulVec(want)
	got := make([]float64, n)
	if _, err := CGTo(context.Background(), got, spd, b, 1e-12, 10*n, nil, nil); err != nil {
		t.Fatal(err)
	}
	if d := Norm2(Sub(got, want)); d > 1e-7 {
		t.Fatalf("CG error %g", d)
	}
}

func TestCGWithPreconditioner(t *testing.T) {
	// Diagonal system with Jacobi preconditioner converges in one step.
	n := 10
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, float64(i+1))
	}
	b := Ones(n)
	precondTo := func(dst, r []float64) {
		for i := range dst {
			dst[i] = r[i] / float64(i+1)
		}
	}
	x := make([]float64, n)
	if _, err := CGTo(context.Background(), x, d, b, 1e-14, 3, precondTo, nil); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], 1/float64(i+1), 1e-10) {
			t.Fatalf("x[%d] = %v", i, x[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	// CGTo zeroes x before iterating, so a stale x does not leak through.
	x := Ones(4)
	if _, err := CGTo(context.Background(), x, Eye(4), make([]float64, 4), 1e-12, 10, nil, nil); err != nil {
		t.Fatal(err)
	}
	if Norm2(x) != 0 {
		t.Fatal("zero RHS should give zero solution")
	}
}

func TestCGLaplacianPath(t *testing.T) {
	// Path graph 0-1-2-3 with unit weights; solve L x = b with b ⊥ 1.
	edges := []WEdge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}
	l := LaplacianCSR(4, edges)
	b := []float64{1, 0, 0, -1}
	x, err := CGLaplacian(l, b, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	lx := l.MulVec(x)
	if d := Norm2(Sub(lx, b)); d > 1e-8 {
		t.Fatalf("residual %g", d)
	}
	if s := Sum(x); !almostEq(s, 0, 1e-10) {
		t.Fatalf("solution not mean-zero: %g", s)
	}
}

func TestCGLaplacianProjectsRHS(t *testing.T) {
	// A RHS not orthogonal to 1 is handled by projecting it.
	edges := []WEdge{{0, 1, 1}, {1, 2, 2}}
	l := LaplacianCSR(3, edges)
	b := []float64{5, 1, 0}
	x, err := CGLaplacian(l, b, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	pb := ProjectOutOnes(b)
	if d := Norm2(Sub(l.MulVec(x), pb)); d > 1e-8 {
		t.Fatalf("residual vs projected RHS: %g", d)
	}
}

func TestPreconditionedChebyshevExactPreconditioner(t *testing.T) {
	// With B = A (κ = 1) Chebyshev solves essentially immediately.
	n := 6
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, float64(i+1))
	}
	b := Ones(n)
	solveBTo := func(dst, r []float64) {
		for i := range dst {
			dst[i] = r[i] / float64(i+1)
		}
	}
	x := make([]float64, n)
	res, err := PreconditionedChebyshevTo(context.Background(), x, d, solveBTo, b, 1.0001, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualNorm > 1e-8 {
		t.Fatalf("residual %g after %d iterations", res.ResidualNorm, res.Iterations)
	}
	for i := range x {
		if !almostEq(x[i], 1/float64(i+1), 1e-8) {
			t.Fatalf("x[%d] = %v", i, x[i])
		}
	}
}

func TestPreconditionedChebyshevKappa3(t *testing.T) {
	// A = diag(1..n), B = 3A is a κ = 3 preconditioner (A ≼ B? No: we need
	// A ≼ B ≼ κA, so take B with spectrum within [1,3]× that of A).
	n := 12
	rnd := rand.New(rand.NewSource(5))
	diagA := make([]float64, n)
	diagB := make([]float64, n)
	for i := range diagA {
		diagA[i] = 1 + rnd.Float64()*9
		diagB[i] = diagA[i] * (1 + 2*rnd.Float64()) // within [1,3]·A
	}
	solveBTo := func(dst, r []float64) {
		for i := range dst {
			dst[i] = r[i] / diagB[i]
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	opA := FuncOp(func(dst, x []float64) {
		for i, v := range diagA {
			dst[i] = v * x[i]
		}
	})
	x := make([]float64, n)
	res, err := PreconditionedChebyshevTo(context.Background(), x, opA, solveBTo, b, 3, 1e-9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualNorm > 1e-6*Norm2(b) {
		t.Fatalf("residual %g too large after %d iters", res.ResidualNorm, res.Iterations)
	}
}

// A pre-canceled context must abort both inner iterations promptly with an
// error satisfying errors.Is(err, context.Canceled).
func TestIterativeSolversHonorContext(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	n := 32
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rnd.NormFloat64())
		}
	}
	spd := a.Transpose().Mul(a)
	for i := 0; i < n; i++ {
		spd.Inc(i, i, 1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, n)
	iters, err := CGTo(ctx, x, spd, b, 1e-12, 10*n, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CGTo under canceled context: iters=%d err=%v", iters, err)
	}
	solveB := func(dst, r []float64) { copy(dst, r) }
	if _, err := PreconditionedChebyshevTo(ctx, x, spd, solveB, b, 4, 1e-6, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Chebyshev under canceled context: %v", err)
	}
}

// InexactCGTo accepts neither a run that spends its whole 40·n+4000
// budget, however close its last iterate, nor a canceled one. The
// operator keeps CG from converging (a skew-symmetric part as large as its
// diagonal).
func TestInexactCGToAcceptance(t *testing.T) {
	b := []float64{1, 2, 3, 4}
	budget := 40*len(b) + 4000
	calls := 0
	op := FuncOp(func(dst, x []float64) {
		calls++
		for i := range dst {
			dst[i] = float64(i+1)*x[i] + x[(i+1)%4] - x[(i+3)%4]
		}
	})
	iters, err := InexactCGTo(context.Background(), make([]float64, len(b)), op, b, nil, NewWorkspace())
	if iters != budget || calls != budget {
		t.Fatalf("%d iterations and %d applications, want %d and %d", iters, calls, budget, budget)
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("spent budget: err = %v, want ErrNoConvergence", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := InexactCGTo(ctx, make([]float64, len(b)), Eye(4), b, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v", err)
	}
}

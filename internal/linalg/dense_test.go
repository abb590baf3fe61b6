package linalg

import (
	"math/rand"
	"testing"
)

func TestDenseSolveKnown(t *testing.T) {
	m := NewDenseFromRows([][]float64{
		{2, 1},
		{1, 3},
	})
	x, err := m.Solve([]float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Solution of 2x+y=3, x+3y=5 is x=4/5, y=7/5.
	if !almostEq(x[0], 0.8, 1e-12) || !almostEq(x[1], 1.4, 1e-12) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestDenseSolveRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rnd.Intn(12)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rnd.NormFloat64())
			}
			m.Inc(i, i, float64(n)) // diagonally dominant => well conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rnd.NormFloat64()
		}
		b := m.MulVec(want)
		got, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if d := Norm2(Sub(got, want)); d > 1e-8 {
			t.Fatalf("trial %d: residual %g", trial, d)
		}
	}
}

func TestDenseSolveSingular(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := m.Solve([]float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rnd.Intn(10)
		// SPD via AᵀA + I.
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
		l, err := spd.Cholesky()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rnd.NormFloat64()
		}
		b := spd.MulVec(want)
		got := CholSolve(l, b)
		if d := Norm2(Sub(got, want)); d > 1e-8 {
			t.Fatalf("trial %d: error %g", trial, d)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := m.Cholesky(); err == nil {
		t.Fatal("expected not-PD error")
	}
}

func TestTransposeMulVec(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 1}
	got := m.MulVecT(x)
	want := m.Transpose().MulVec(x)
	for i := range got {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MulVecT mismatch at %d", i)
		}
	}
}

func TestEyeQuadForm(t *testing.T) {
	m := Eye(3)
	x := []float64{1, 2, 3}
	if got := m.QuadForm(x); got != 14 {
		t.Fatalf("QuadForm = %v", got)
	}
}

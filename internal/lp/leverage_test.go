package lp_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/jl"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// flowLP returns the constraint matrix of the flow LP of a 5-vertex,
// 9-arc network with terminals (0, 4): an 18×4 matrix, the shape every
// cold solve of the repository benchmark works on.
func flowLP(tb testing.TB) *linalg.CSR {
	tb.Helper()
	d := graph.NewDigraph(5)
	for _, a := range [][4]int64{{0, 1, 2, 1}, {1, 2, 1, 1}, {2, 3, 2, 0}, {3, 4, 2, 1},
		{0, 3, 1, 3}, {1, 0, 3, 2}, {3, 0, 2, 2}, {4, 0, 1, 0}, {4, 3, 3, 1}} {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			tb.Fatal(err)
		}
	}
	form, err := flow.NewLPFormStructure(d, 0, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return form.Prob.A
}

// barrierScaling draws d with entries spread over twelve decades, as the
// barrier diagonals of a path-following run are.
func barrierScaling(m int, rnd *rand.Rand) []float64 {
	d := make([]float64, m)
	for i := range d {
		d[i] = math.Pow(10, -6+12*rnd.Float64())
	}
	return d
}

// gramSolve binds an AᵀDA backend to D = d².
func gramSolve(sol lp.ATDASolve, d []float64) jl.GramSolver {
	d2 := make([]float64, len(d))
	for i, v := range d {
		d2[i] = v * v
	}
	return sol.Gram(context.Background(), d2)
}

// exactLeverage is the IPM's leverage function over A, as lp.NewSession
// builds it: jl.ExactLeverage with its Gram solves bound through
// ATDASolve.Gram to one reused D = d² buffer.
func exactLeverage(a *linalg.CSR, sol lp.ATDASolve) lp.LeverageFn {
	exact := jl.NewExactLeverage(a)
	d2 := make([]float64, a.Rows())
	gram := sol.Gram(context.Background(), d2)
	return func(d []float64) ([]float64, error) {
		for i, v := range d {
			d2[i] = v * v
		}
		return exact.Scores(d, gram)
	}
}

// leverageFullSpMV is exact leverage with two full products per column:
// σᵢ = Σⱼ (d⊙A·G⁻¹eⱼ)ᵢ·(d⊙A·eⱼ)ᵢ summed over every row i, j ascending.
func leverageFullSpMV(a *linalg.CSR, d []float64, solve jl.GramSolver) ([]float64, error) {
	sigma := make([]float64, a.Rows())
	ej := make([]float64, a.Cols())
	for j := range ej {
		ej[j] = 1
		col := a.MulVec(ej)
		s, err := solve(ej)
		ej[j] = 0
		if err != nil {
			return nil, err
		}
		p := a.MulVec(s)
		for i := range sigma {
			col[i] *= d[i]
			p[i] *= d[i]
			sigma[i] += p[i] * col[i]
		}
	}
	return sigma, nil
}

// The column pass touches only the rows in each column's support; every
// term it skips is an exact zero, so on every backend its scores are the
// full-product sums bit for bit.
func TestExactLeverageBitIdenticalToFullSpMV(t *testing.T) {
	a := flowLP(t)
	rnd := rand.New(rand.NewSource(31))
	for _, backend := range lp.Backends() {
		sol, _, err := lp.NewBackendSolverStats(backend, a)
		if err != nil {
			t.Fatal(err)
		}
		lev := exactLeverage(a, sol)
		for trial := 0; trial < 10; trial++ {
			d := barrierScaling(a.Rows(), rnd)
			want, err := leverageFullSpMV(a, d, gramSolve(sol, d))
			if err != nil {
				t.Fatal(err)
			}
			got, err := lev(d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: σ[%d] = %v (column pass), full products %v",
						backend, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// The dense backend keeps its factor until D changes: solving under D₁,
// D₂, D₁ must give a fresh backend's bits for each, so the kept factor is
// never stale.
func TestDenseBackendFactorFollowsD(t *testing.T) {
	a := flowLP(t)
	rnd := rand.New(rand.NewSource(32))
	d1, d2 := barrierScaling(a.Rows(), rnd), barrierScaling(a.Rows(), rnd)
	ys := [][]float64{{1, 0, 0, 0}, {0.5, -2, 0, 3}}
	reused, _, err := lp.NewBackendSolverStats("dense", a)
	if err != nil {
		t.Fatal(err)
	}
	for step, d := range [][]float64{d1, d2, d1} {
		fresh, _, err := lp.NewBackendSolverStats("dense", a)
		if err != nil {
			t.Fatal(err)
		}
		for k, y := range ys {
			want, _, err := fresh(context.Background(), d, y)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := reused(context.Background(), d, y)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d rhs %d: x[%d] = %v, fresh backend %v", step, k, i, got[i], want[i])
				}
			}
		}
	}
}

// With D fixed across calls, an exact leverage call allocates σ and one
// result per solve, nothing else: no column index, D = d² buffer,
// operator, factor or right-hand side is rebuilt per call.
func TestLeverageExactAllocations(t *testing.T) {
	a := flowLP(t)
	d := barrierScaling(a.Rows(), rand.New(rand.NewSource(33)))
	for _, backend := range []string{"csr-pcg", "dense"} {
		sol, _, err := lp.NewBackendSolverStats(backend, a)
		if err != nil {
			t.Fatal(err)
		}
		lev := exactLeverage(a, sol)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := lev(d); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(a.Cols() + 1); allocs > limit {
			t.Errorf("%s: one exact leverage call allocates %v times, want at most %v", backend, allocs, limit)
		}
	}
}

// BenchmarkLeverageExact times one exact leverage call on the benchmark's
// 18×4 flow LP, with a fresh barrier scaling per call as path following
// has it (run with -benchmem).
func BenchmarkLeverageExact(b *testing.B) {
	a := flowLP(b)
	rnd := rand.New(rand.NewSource(34))
	ds := make([][]float64, 16)
	for i := range ds {
		ds[i] = barrierScaling(a.Rows(), rnd)
	}
	for _, backend := range []string{"csr-pcg", "dense"} {
		b.Run(backend, func(b *testing.B) {
			sol, _, err := lp.NewBackendSolverStats(backend, a)
			if err != nil {
				b.Fatal(err)
			}
			lev := exactLeverage(a, sol)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lev(ds[i%len(ds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

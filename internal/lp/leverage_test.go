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

// flowLP returns the flow LP of a 5-vertex, 9-arc network with terminals
// (0, 4): an 18×4 constraint matrix, the shape every cold solve of the
// repository benchmark works on.
func flowLP(tb testing.TB) *lp.Problem {
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
	return form.Prob
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

// sessionLeverage returns the leverage function of a session that runs
// prob on backend.
func sessionLeverage(tb testing.TB, prob *lp.Problem, backend string) lp.LeverageFn {
	tb.Helper()
	p := *prob
	p.Backend = backend
	sess, err := lp.NewSession(&p)
	if err != nil {
		tb.Fatal(err)
	}
	return sess.Leverage()
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
// term it skips is an exact zero, so the IPM's scores are the
// full-product sums over the same Gram factor bit for bit.
func TestExactLeverageBitIdenticalToFullSpMV(t *testing.T) {
	prob := flowLP(t)
	a := prob.A
	lev := sessionLeverage(t, prob, lp.DefaultBackend)
	gram := linalg.NewGramFactor(a)
	d2 := make([]float64, a.Rows())
	rnd := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		d := barrierScaling(a.Rows(), rnd)
		for i, v := range d {
			d2[i] = v * v
		}
		gram.Factor(d2)
		want, err := leverageFullSpMV(a, d, gram.Solve)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lev(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: σ[%d] = %v (column pass), full products %v", trial, i, got[i], want[i])
			}
		}
	}
}

// Leverage does not go through the AᵀDA backend: sessions on dense and
// csr-pcg compute σ from the same dense factorization, so
// their scores agree bit for bit under every barrier scaling.
func TestIPMLeverageBackendIndependent(t *testing.T) {
	prob := flowLP(t)
	levs := map[string]lp.LeverageFn{}
	for _, backend := range lp.Backends() {
		levs[backend] = sessionLeverage(t, prob, backend)
	}
	rnd := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		d := barrierScaling(prob.M(), rnd)
		want, err := levs["dense"](d)
		if err != nil {
			t.Fatal(err)
		}
		for backend, lev := range levs {
			got, err := lev(d)
			if err != nil {
				t.Fatalf("%s trial %d: %v", backend, trial, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: σ[%d] = %v, dense session %v", backend, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// The dense backend reuses its Gram buffer across calls: solving under
// D₁, D₂, D₁ must give a fresh backend's bits for each, so nothing stale
// survives a call.
func TestDenseBackendFactorFollowsD(t *testing.T) {
	a := flowLP(t).A
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

// An exact leverage call allocates σ and one result per solve, nothing
// else: no column index, D = d² buffer, Gram buffer, Cholesky factor or
// right-hand side is rebuilt per call.
func TestLeverageExactAllocations(t *testing.T) {
	prob := flowLP(t)
	lev := sessionLeverage(t, prob, lp.DefaultBackend)
	d := barrierScaling(prob.M(), rand.New(rand.NewSource(33)))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := lev(d); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(prob.N() + 1); allocs > limit {
		t.Errorf("one exact leverage call allocates %v times, want at most %v", allocs, limit)
	}
}

// BenchmarkLeverageExact times one exact leverage call on the benchmark's
// 18×4 flow LP, with a fresh barrier scaling per call as path following
// has it (run with -benchmem).
func BenchmarkLeverageExact(b *testing.B) {
	prob := flowLP(b)
	lev := sessionLeverage(b, prob, lp.DefaultBackend)
	rnd := rand.New(rand.NewSource(34))
	ds := make([][]float64, 16)
	for i := range ds {
		ds[i] = barrierScaling(prob.M(), rnd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lev(ds[i%len(ds)]); err != nil {
			b.Fatal(err)
		}
	}
}

package lp

import (
	"math"
	"math/rand"
	"testing"

	"bcclap/internal/jl"
	"bcclap/internal/linalg"
)

func tallMatrix(m, n int, rnd *rand.Rand) *linalg.CSR {
	var ts []linalg.Triple
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ts = append(ts, linalg.Triple{Row: i, Col: j, Val: rnd.NormFloat64()})
		}
	}
	return linalg.NewCSR(m, n, ts)
}

func TestLewisWeightsPTwoAreLeverageScores(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	m, n := 20, 4
	a := tallMatrix(m, n, rnd)
	lev := exactLeverage(a)
	base := linalg.Ones(m)
	// For p = 2, W^{1/2−1/p} = W⁰ = I, so the fixed point is σ(A) itself.
	sigma, err := lev(base)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ComputeApxWeights(lev, base, 2, sigma, lewisIters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(w[i]-sigma[i]) > 0.05*(sigma[i]+0.01) {
			t.Fatalf("w[%d] = %v, σ = %v", i, w[i], sigma[i])
		}
	}
}

func TestLewisFixedPoint(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	m, n := 24, 4
	a := tallMatrix(m, n, rnd)
	lev := exactLeverage(a)
	base := linalg.Ones(m)
	p := 1.2
	w, _, err := ComputeInitialWeights(lev, base, p, n, m)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the defining equation w = σ(W^{1/2−1/p}A) approximately.
	d := make([]float64, m)
	for i := range d {
		d[i] = math.Pow(math.Max(w[i], 1e-12), 0.5-1/p)
	}
	sigma, err := lev(d)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range w {
		rel := math.Abs(w[i]-sigma[i]) / (sigma[i] + 0.02)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.35 {
		t.Fatalf("Lewis fixed-point residual %v too large", worst)
	}
	// Lewis weights sum to ≈ n.
	if s := linalg.Sum(w); math.Abs(s-float64(n)) > 1 {
		t.Fatalf("Σw = %v, want ≈ %d", s, n)
	}
}

func TestComputeInitialWeightsStepCountScales(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	steps := func(n int) int {
		m := 3 * n
		a := tallMatrix(m, n, rnd)
		_, st, err := ComputeInitialWeights(exactLeverage(a), linalg.Ones(m), 1-1/math.Log(4*float64(m)), n, m)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	s4, s16 := steps(4), steps(16)
	if s16 <= s4 {
		t.Fatalf("homotopy steps did not grow with √n: %d vs %d", s4, s16)
	}
	// Lemma 4.6: Õ(√n) — quadrupling n should roughly double the steps,
	// certainly not more than quadruple them.
	if float64(s16) > 4.5*float64(s4) {
		t.Fatalf("homotopy growth superlinear in √n: %d -> %d", s4, s16)
	}
}

func TestComputeApxWeightsRejectsBadP(t *testing.T) {
	if _, err := ComputeApxWeights(nil, nil, 0, nil, lewisIters); err == nil {
		t.Fatal("p = 0 accepted")
	}
}

// Exact leverage costs one Gram solve per column of A (n), not one per
// row (m), on every call.
func TestExactLeverageSolveCounts(t *testing.T) {
	m, n := 30, 6
	a := tallMatrix(m, n, rand.New(rand.NewSource(4)))
	exact := jl.NewExactLeverage(a)
	gram := linalg.NewGramFactor(a)
	gram.Factor(linalg.Ones(m))
	calls := 0
	solve := func(y []float64) ([]float64, error) {
		calls++
		return gram.Solve(y)
	}
	for call := 0; call < 3; call++ {
		before := calls
		if _, err := exact.Scores(linalg.Ones(m), solve); err != nil {
			t.Fatal(err)
		}
		if got := calls - before; got != n {
			t.Fatalf("call %d issued %d Gram solves, want %d", call, got, n)
		}
	}
}

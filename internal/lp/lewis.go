package lp

import (
	"fmt"
	"math"

	"bcclap/internal/jl"
	"bcclap/internal/linalg"
)

// LeverageFn returns the leverage scores σ(diag(d)·A) for the problem's
// constraint matrix A. The IPM's is exactLeverage.
type LeverageFn func(d []float64) ([]float64, error)

// exactLeverage returns the IPM's leverage over A, whatever the session's
// backend: per call, one dense factorization of AᵀD²A (D = d²,
// linalg.GramFactor) answers the n column solves of jl.ExactLeverage. The
// Gram buffer, the D buffer and A's column index are built here, once.
func exactLeverage(a *linalg.CSR) LeverageFn {
	exact := jl.NewExactLeverage(a)
	gram := linalg.NewGramFactor(a)
	d2 := make([]float64, a.Rows())
	return func(d []float64) ([]float64, error) {
		for i, v := range d {
			d2[i] = v * v
		}
		gram.Factor(d2)
		return exact.Scores(d, gram.Solve)
	}
}

// ComputeApxWeights implements Algorithm 7: approximate the ℓ_p Lewis
// weights w_p(diag(base)·A) starting from w0, by iters damped fixed-point
// steps
//
//	w ← median((1−r)w0, w − (1/L)(w0 − (w0/w)·σ(W^{1/2−1/p}·diag(base)·A)), (1+r)w0)
//
// with the paper's L = max(4, 8/p) and the band r = lewisBand. The fixed
// point satisfies w = σ(W^{1/2−1/p}M), the defining equation of
// Definition 4.3.
func ComputeApxWeights(lev LeverageFn, base []float64, p float64, w0 []float64, iters int) ([]float64, error) {
	if p <= 0 {
		return nil, fmt.Errorf("lp: lewis p = %g must be positive", p)
	}
	m := len(w0)
	bigL := math.Max(4, 8/p)
	w := linalg.Clone(w0)
	exp := 0.5 - 1/p
	d := make([]float64, m)
	for iter := 0; iter < iters; iter++ {
		for i := range d {
			wi := math.Max(w[i], lewisFloor)
			d[i] = math.Pow(wi, exp) * base[i]
		}
		sigma, err := lev(d)
		if err != nil {
			return nil, fmt.Errorf("lp: lewis iteration %d: %w", iter, err)
		}
		for i := range w {
			wi := math.Max(w[i], lewisFloor)
			target := wi - (1/bigL)*(w0[i]-(w0[i]/wi)*sigma[i])
			w[i] = linalg.Median3((1-lewisBand)*w0[i], target, (1+lewisBand)*w0[i])
			if w[i] < lewisFloor {
				w[i] = lewisFloor
			}
		}
	}
	return w, nil
}

// ComputeInitialWeights implements Algorithm 8: homotopy from p = 2 (where
// Lewis weights are plain leverage scores) to pTarget, shrinking p by
// h = min{2,p}·r/(√n·log(m·e²/n)) per step — the √n·log(m) step count is
// exactly the initialization cost in Lemma 4.6 — for at most
// initWeightSteps steps. Each step runs max(2, lewisIters/2) iterations of
// Algorithm 7, and a final lewisIters-iteration call returns the weights
// for pTarget, along with the step count.
func ComputeInitialWeights(lev LeverageFn, base []float64, pTarget float64, n, m int) ([]float64, int, error) {
	cK := 2 * math.Log(4*float64(m))
	w := linalg.Constant(m, 1/(2*cK))
	p := 2.0
	steps := 0
	denom := math.Sqrt(float64(n))*math.Log(float64(m)*math.E*math.E/math.Max(1, float64(n))) + 1
	for p != pTarget && steps < initWeightSteps {
		h := math.Min(2, p) * lewisBand / denom
		pNew := linalg.Median3(p-h, pTarget, p+h)
		w0 := make([]float64, m)
		for i := range w {
			w0[i] = math.Pow(math.Max(w[i], lewisFloor), pNew/p)
		}
		var err error
		w, err = ComputeApxWeights(lev, base, pNew, w0, max(2, lewisIters/2))
		if err != nil {
			return nil, steps, err
		}
		p = pNew
		steps++
	}
	w, err := ComputeApxWeights(lev, base, pTarget, w, lewisIters)
	return w, steps, err
}

package lp

import (
	"context"
	"fmt"
	"math"

	"bcclap/internal/jl"
	"bcclap/internal/linalg"
)

// LeverageFn returns approximate leverage scores σ(diag(d)·A) for the
// problem's constraint matrix A. Implementations use either the exact
// one-solve-per-column formula or Algorithm 6's Johnson–Lindenstrauss
// sketching with a shared Kane–Nelson seed.
type LeverageFn func(d []float64) ([]float64, error)

// NewLeverageFn builds a LeverageFn over A. When n exceeds the sketch
// dimension k = Θ(log(m)/η²), it uses a Kane–Nelson sketch with a fresh
// seed per call (in the BCC the leader broadcasts O(log²m) seed bits once
// per call, as in Algorithm 6); otherwise it takes the exact n-solve
// computation, whose column index of A it builds here, once. η ≤ 0 always
// takes the exact path. solve answers (AᵀDA)x = y under ctx; the
// leverage solves' iteration counts are discarded. The returned function
// reuses its buffers, so it is not safe for concurrent calls.
func NewLeverageFn(ctx context.Context, a *linalg.CSR, solve ATDASolve, eta float64, seed int64) LeverageFn {
	m, n := a.Rows(), a.Cols()
	d2 := make([]float64, m)
	gram := solve.Gram(ctx, d2)
	// The exact computation costs n solves and the sketch k, so sketching
	// only pays off once n > k; below that, exact is both exact and
	// cheaper.
	k := jl.SketchDim(m, eta/4)
	var exact *jl.ExactLeverage
	if k >= n {
		exact = jl.NewExactLeverage(a)
	}
	counter := seed
	return func(d []float64) ([]float64, error) {
		if len(d) != m {
			return nil, fmt.Errorf("lp: leverage scaling has %d entries, want %d", len(d), m)
		}
		for i, v := range d {
			d2[i] = v * v
		}
		if exact != nil {
			return exact.Scores(d, gram)
		}
		counter++
		sk, err := jl.NewKaneNelson(k, m, 0, counter)
		if err != nil {
			return nil, err
		}
		return jl.LeverageScoresApprox(a, d, gram, sk)
	}
}

// LewisParams tunes the Lewis-weight iterations. The paper's Algorithm 7
// uses L = max(4, 8/p), a clamp band r = p²(4−p)/2²⁰ and
// T = Θ((p + 1/p)·log(pn/η)) iterations — r is tiny because the proof
// tracks a local contraction; in float64 practice a wide band with a few
// damped fixed-point steps reaches the same fixed point. Defaults keep the
// paper's L and iteration shape with a practical band.
type LewisParams struct {
	// R is the multiplicative clamp band around w0 (paper: p²(4−p)/2²⁰).
	R float64
	// MaxIters caps the iteration count T.
	MaxIters int
	// WMin floors the weights for numerical safety.
	WMin float64
}

// DefaultLewisParams returns practical defaults.
func DefaultLewisParams() LewisParams {
	return LewisParams{R: 0.9, MaxIters: 8, WMin: 1e-10}
}

// ComputeApxWeights implements Algorithm 7: approximate the ℓ_p Lewis
// weights w_p(diag(base)·A) starting from w0, by damped fixed-point steps
//
//	w ← median((1−r)w0, w − (1/L)(w0 − (w0/w)·σ(W^{1/2−1/p}·diag(base)·A)), (1+r)w0).
//
// The fixed point satisfies w = σ(W^{1/2−1/p}M), the defining equation of
// Definition 4.3.
func ComputeApxWeights(lev LeverageFn, base []float64, p float64, w0 []float64, par LewisParams) ([]float64, error) {
	if p <= 0 {
		return nil, fmt.Errorf("lp: lewis p = %g must be positive", p)
	}
	m := len(w0)
	bigL := math.Max(4, 8/p)
	w := linalg.Clone(w0)
	exp := 0.5 - 1/p
	d := make([]float64, m)
	for iter := 0; iter < par.MaxIters; iter++ {
		for i := range d {
			wi := math.Max(w[i], par.WMin)
			d[i] = math.Pow(wi, exp) * base[i]
		}
		sigma, err := lev(d)
		if err != nil {
			return nil, fmt.Errorf("lp: lewis iteration %d: %w", iter, err)
		}
		for i := range w {
			wi := math.Max(w[i], par.WMin)
			target := wi - (1/bigL)*(w0[i]-(w0[i]/wi)*sigma[i])
			w[i] = linalg.Median3((1-par.R)*w0[i], target, (1+par.R)*w0[i])
			if w[i] < par.WMin {
				w[i] = par.WMin
			}
		}
	}
	return w, nil
}

// ComputeInitialWeights implements Algorithm 8: homotopy from p = 2 (where
// Lewis weights are plain leverage scores) to pTarget, shrinking p by
// h = min{2,p}·r/(√n·log(m·e²/n)) per step — the √n·log(m) step count is
// exactly the initialization cost in Lemma 4.6. Returns the weights for
// pTarget to the accuracy of the final ComputeApxWeights call.
func ComputeInitialWeights(lev LeverageFn, base []float64, pTarget float64, n, m int, par LewisParams, maxSteps int) ([]float64, int, error) {
	cK := 2 * math.Log(4*float64(m))
	w := linalg.Constant(m, 1/(2*cK))
	p := 2.0
	steps := 0
	denom := math.Sqrt(float64(n))*math.Log(float64(m)*math.E*math.E/math.Max(1, float64(n))) + 1
	for p != pTarget && steps < maxSteps {
		h := math.Min(2, p) * par.R / denom
		pNew := linalg.Median3(p-h, pTarget, p+h)
		w0 := make([]float64, m)
		for i := range w {
			w0[i] = math.Pow(math.Max(w[i], par.WMin), pNew/p)
		}
		var err error
		coarse := par
		coarse.MaxIters = max(2, par.MaxIters/2)
		w, err = ComputeApxWeights(lev, base, pNew, w0, coarse)
		if err != nil {
			return nil, steps, err
		}
		p = pNew
		steps++
	}
	w, err := ComputeApxWeights(lev, base, pTarget, w, par)
	return w, steps, err
}

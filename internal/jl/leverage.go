package jl

import (
	"fmt"

	"bcclap/internal/linalg"
)

// GramSolver solves (MᵀM)x = y for the current matrix M. The LP solver,
// e6 and the tests all pass linalg.GramFactor.Solve, a dense Cholesky
// solve; the paper's would be a Laplacian solver for flow constraint
// matrices.
type GramSolver func(y []float64) ([]float64, error)

// ExactLeverage computes exact leverage scores σ(diag(d)·A) for one fixed
// A. It holds A's column index (Aᵀ in CSR form, built once in O(nnz)) and
// the unit right-hand side, so a call allocates only σ and what its solves
// return.
type ExactLeverage struct {
	a, at *linalg.CSR
	ej    []float64 // all zero between calls
}

// NewExactLeverage builds the column index of A.
func NewExactLeverage(a *linalg.CSR) *ExactLeverage {
	return &ExactLeverage{a: a, at: a.Transpose(), ej: make([]float64, a.Cols())}
}

// Scores returns σ(M) = diag(M(MᵀM)⁻¹Mᵀ) for M = diag(d)·A with one Gram
// solve per column: with G = MᵀM, column j of G⁻¹ is the solve s against
// eⱼ, and σᵢ = Σⱼ (M·s)ᵢ·Mᵢⱼ. Mᵢⱼ is zero off column j's support, so each
// solve updates only the rows in it, j ascending: n solves plus O(nnz),
// and the same bits as summing over every row. That is n solves, not the
// m of the per-row form, so for tall M (m ≫ n) it undercuts the
// k = Θ(log m/η²) solves of Algorithm 6 until n exceeds k. solve answers
// (MᵀM)x = y.
func (e *ExactLeverage) Scores(d []float64, solve GramSolver) ([]float64, error) {
	sigma := make([]float64, e.a.Rows())
	for j := range e.ej {
		e.ej[j] = 1
		s, err := solve(e.ej)
		e.ej[j] = 0
		if err != nil {
			return nil, fmt.Errorf("jl: exact leverage column %d: %w", j, err)
		}
		rows, colj := e.at.Row(j)
		for k, i := range rows {
			cols, vals := e.a.Row(i)
			var p float64 // (A·s)ᵢ, summed as CSR.MulVecTo sums it
			for q, c := range cols {
				p += vals[q] * s[c]
			}
			sigma[i] += p * d[i] * (colj[k] * d[i])
		}
	}
	return sigma, nil
}

// LeverageScoresApprox implements ComputeLeverageScores (Algorithm 6) for
// M = diag(d)·A: σ_apx = Σ_j (M(MᵀM)⁻¹Mᵀ Q⁽ʲ⁾)², using the rows of a
// shared-seed sketch. By Lemma 4.5 the result is within (1±η) of σ(M)
// w.h.p. when the sketch dimension is Θ(log(m)/η²). solve answers
// (MᵀM)x = y.
func LeverageScoresApprox(a *linalg.CSR, d []float64, solve GramSolver, sk Sketch) ([]float64, error) {
	m := a.Rows()
	if sk.M() != m {
		return nil, fmt.Errorf("jl: sketch is %d-dimensional, matrix has %d rows", sk.M(), m)
	}
	sigma := make([]float64, m)
	dq := make([]float64, m)
	p := make([]float64, m)
	for j := 0; j < sk.K(); j++ {
		q := sk.Row(j)
		for i := range dq {
			dq[i] = d[i] * q[i]
		}
		s, err := solve(a.MulVecT(dq))
		if err != nil {
			return nil, fmt.Errorf("jl: approx leverage sketch row %d: %w", j, err)
		}
		a.MulVecTo(p, s)
		for i := range sigma {
			pi := p[i] * d[i]
			sigma[i] += pi * pi
		}
	}
	// Leverage scores lie in [0, 1]; clamp numerical noise.
	for i := range sigma {
		sigma[i] = linalg.Clamp(sigma[i], 0, 1)
	}
	return sigma, nil
}

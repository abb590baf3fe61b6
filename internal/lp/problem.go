package lp

import (
	"context"
	"fmt"
	"math"

	"bcclap/internal/linalg"
)

// ATDASolve solves (AᵀDA)x = y for the positive diagonal D (given as a
// vector). Implementations come from the backend registry (see backend.go);
// NewSession builds the one named by Problem.Backend. The int return is
// the number of inner (CG) iterations spent — 0 for direct methods — which
// the IPM aggregates into Solution.CGIterations. Implementations honor ctx:
// on cancellation they return an error satisfying errors.Is(err, ctx.Err()).
type ATDASolve func(ctx context.Context, d, y []float64) ([]float64, int, error)

// Problem is the LP  min cᵀx  s.t.  Aᵀx = b,  l ≤ x ≤ u  (Section 4's
// convention: A ∈ R^{m×n} with rank n, so n plays the role of the vertex
// count and m the edge count in flow formulations).
type Problem struct {
	A *linalg.CSR
	B []float64 // demand, length n
	C []float64 // cost, length m
	L []float64 // lower bounds, length m (−Inf allowed)
	U []float64 // upper bounds, length m (+Inf allowed)

	// Backend names a registered AᵀDA strategy ("dense", "csr-pcg", …);
	// empty selects DefaultBackend.
	Backend string
}

// Validate checks dimensions and bound sanity.
func (p *Problem) Validate() error {
	if p.A == nil {
		return fmt.Errorf("lp: nil constraint matrix")
	}
	m, n := p.A.Rows(), p.A.Cols()
	if len(p.B) != n {
		return fmt.Errorf("lp: b has %d entries, want %d", len(p.B), n)
	}
	if len(p.C) != m {
		return fmt.Errorf("lp: c has %d entries, want %d", len(p.C), m)
	}
	if len(p.L) != m || len(p.U) != m {
		return fmt.Errorf("lp: bounds have %d/%d entries, want %d", len(p.L), len(p.U), m)
	}
	if _, err := NewBarriers(p.L, p.U); err != nil {
		return err
	}
	return nil
}

// M returns the number of variables (rows of A).
func (p *Problem) M() int { return p.A.Rows() }

// N returns the number of equality constraints (columns of A).
func (p *Problem) N() int { return p.A.Cols() }

// Residual returns ‖Aᵀx − b‖₂, the equality-constraint violation.
func (p *Problem) Residual(x []float64) float64 {
	return linalg.Norm2(linalg.Sub(p.A.MulVecT(x), p.B))
}

// Objective returns cᵀx.
func (p *Problem) Objective(x []float64) float64 { return linalg.Dot(p.C, x) }

// BoundU computes the scale parameter U of Theorem 1.4 for an initial
// point x0: max of ‖1/(u−x0)‖∞, ‖1/(x0−l)‖∞, ‖u−l‖∞ and ‖c‖∞ (infinite
// one-sided terms are skipped, matching the barrier choice).
func (p *Problem) BoundU(x0 []float64) float64 {
	u := linalg.NormInf(p.C)
	for i := range x0 {
		if !math.IsInf(p.U[i], 1) {
			if v := 1 / (p.U[i] - x0[i]); v > u {
				u = v
			}
			if !math.IsInf(p.L[i], -1) {
				if v := p.U[i] - p.L[i]; v > u {
					u = v
				}
			}
		}
		if !math.IsInf(p.L[i], -1) {
			if v := 1 / (x0[i] - p.L[i]); v > u {
				u = v
			}
		}
	}
	if u < 1 {
		u = 1
	}
	return u
}

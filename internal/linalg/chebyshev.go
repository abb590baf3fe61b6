package linalg

import (
	"context"
	"fmt"
	"math"
)

// ChebyshevResult reports what a preconditioned Chebyshev run did.
type ChebyshevResult struct {
	// Iterations is the number of Chebyshev iterations performed (each one
	// multiplication by A and one solve in B, per Theorem 2.3).
	Iterations int
	// ResidualNorm is ||b - A y||₂ at termination.
	ResidualNorm float64
}

// PreconditionedChebyshevTo implements Theorem 2.3 of the paper with
// caller-provided storage: given symmetric PSD A (as a LinOp) and a solver
// for B with A ≼ B ≼ κA, a vector b and ε ∈ (0, 1/2], it writes y into x
// with ||x* − y||_A ≤ ε ||x*||_A for the solution x* of A x* = b, using
// O(√κ · log(1/ε)) iterations. solveBTo applies B⁻¹ into its first
// argument. Temporaries come from ws; repeated solves through a shared
// workspace allocate nothing.
//
// The iteration is classical Chebyshev semi-iteration on the preconditioned
// operator B⁻¹A, whose spectrum lies in [1/κ, 1] (restricted to the range of
// A; callers handle nullspaces, e.g. by projecting out the all-ones vector
// for Laplacians).
//
// ctx is polled every cancelCheckInterval iterations; on cancellation the
// returned error satisfies errors.Is(err, ctx.Err()) and the result reports
// the iterations completed so far.
func PreconditionedChebyshevTo(ctx context.Context, x []float64, a LinOp, solveBTo func(dst, r []float64), b []float64, kappa, eps float64, ws *Workspace) (ChebyshevResult, error) {
	n := len(b)
	if len(x) != n {
		panic("linalg: PreconditionedChebyshevTo dimension mismatch")
	}
	lmin, lmax := 1/kappa, 1.0
	theta := (lmax + lmin) / 2
	delta := (lmax - lmin) / 2

	iters := int(math.Ceil(math.Sqrt(kappa)*math.Log(2/eps))) + 1
	for i := range x {
		x[i] = 0
	}
	r := ws.Get(n)
	copy(r, b)
	z := ws.Get(n)
	p := ws.Get(n)
	ax := ws.Get(n)
	defer func() {
		ws.Put(r)
		ws.Put(z)
		ws.Put(p)
		ws.Put(ax)
	}()
	var alpha float64
	for k := 0; k < iters; k++ {
		if k%cancelCheckInterval == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return ChebyshevResult{Iterations: k, ResidualNorm: Norm2(r)},
					fmt.Errorf("linalg: Chebyshev canceled after %d iterations: %w", k, err)
			}
		}
		solveBTo(z, r)
		switch k {
		case 0:
			copy(p, z)
			alpha = 1 / theta
		default:
			var beta float64
			if k == 1 {
				beta = 0.5 * (delta * alpha) * (delta * alpha)
			} else {
				beta = (delta * alpha / 2) * (delta * alpha / 2)
			}
			alpha = 1 / (theta - beta/alpha)
			for i := range p {
				p[i] = z[i] + beta*p[i]
			}
		}
		AXPY(alpha, p, x)
		a.MulVecTo(ax, x)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
	}
	return ChebyshevResult{Iterations: iters, ResidualNorm: Norm2(r)}, nil
}

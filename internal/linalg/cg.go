package linalg

import (
	"context"
	"errors"
	"fmt"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without reaching the requested tolerance.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// cancelCheckInterval is how often (in iterations) the inner solve loops
// poll ctx.Err(). Checking every iteration would put a branch on the hot
// path for nothing — a handful of matrix-vector products between polls
// keeps cancellation latency far below one outer IPM iteration while the
// kernel stays allocation-free.
const cancelCheckInterval = 32

// CGTo solves the symmetric positive-definite system A x = b with conjugate
// gradients to relative residual tol, writing the solution into x (length n,
// initialized to zero by this function). precondTo, if non-nil, applies an
// SPD preconditioner M⁻¹ into its first argument. All temporaries come from
// ws, so repeated solves through a shared workspace allocate nothing.
//
// ctx is polled every cancelCheckInterval iterations; on cancellation the
// returned error satisfies errors.Is(err, ctx.Err()). The returned count is
// the number of CG iterations performed.
func CGTo(ctx context.Context, x []float64, a LinOp, b []float64, tol float64, maxIter int, precondTo func(dst, r []float64), ws *Workspace) (int, error) {
	n := len(b)
	if len(x) != n {
		panic("linalg: CGTo dimension mismatch")
	}
	for i := range x {
		x[i] = 0
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		return 0, nil
	}
	r := ws.Get(n)
	copy(r, b)
	z := ws.Get(n)
	p := ws.Get(n)
	ap := ws.Get(n)
	defer func() {
		ws.Put(r)
		ws.Put(z)
		ws.Put(p)
		ws.Put(ap)
	}()
	apply := func(dst, v []float64) {
		if precondTo == nil {
			copy(dst, v)
		} else {
			precondTo(dst, v)
		}
	}
	apply(z, r)
	copy(p, z)
	rz := Dot(r, z)
	for it := 0; it < maxIter; it++ {
		if it%cancelCheckInterval == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return it, fmt.Errorf("linalg: CG canceled after %d iterations: %w", it, err)
			}
		}
		if Norm2(r) <= tol*bnorm {
			return it, nil
		}
		a.MulVecTo(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 {
			// Not SPD in this direction (or numerically exhausted); stop with
			// the best iterate rather than diverging.
			return it, nil
		}
		alpha := rz / pap
		AXPY(alpha, p, x)
		AXPY(-alpha, ap, r)
		apply(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if Norm2(r) <= tol*bnorm {
		return maxIter, nil
	}
	return maxIter, ErrNoConvergence
}

// InexactCGTo is the inexact-solve policy of the interior-point method's
// normal-equation solves, in one place: CGTo on A x = b with relative
// tolerance 1e-10 and a budget of 40·n+4000 iterations. A run that spends
// the budget short of the tolerance fails with ErrNoConvergence. The
// matrix-free AᵀDA backends and lapsolver's SDD solve run through it, so
// their iteration counts stay comparable.
func InexactCGTo(ctx context.Context, x []float64, a LinOp, b []float64, precondTo func(dst, r []float64), ws *Workspace) (int, error) {
	return CGTo(ctx, x, a, b, 1e-10, 40*len(b)+4000, precondTo, ws)
}

// CGLaplacian solves L x = b for a graph Laplacian L, handling the span{1}
// nullspace: b is projected orthogonal to 1, CG runs on the projected
// operator P·L·P, and the returned solution is the minimum-norm
// (mean-zero) one. The graph must be connected for the result to solve the
// projected system. On ErrNoConvergence the unprojected last iterate is
// returned with the error.
func CGLaplacian(l LinOp, b []float64, tol float64, maxIter int) ([]float64, error) {
	x := make([]float64, len(b))
	if _, err := CGTo(context.Background(), x, ProjectedOp{A: l}, ProjectOutOnes(b), tol, maxIter, nil, nil); err != nil {
		return x, err
	}
	return ProjectOutOnes(x), nil
}

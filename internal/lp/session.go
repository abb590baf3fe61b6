package lp

import (
	"context"
	"fmt"
	"math"

	"bcclap/internal/linalg"
)

// Session is a reusable solver handle for one Problem: the linear-solve
// backend (with its factorization buffers and CG workspaces), the leverage
// index and the IPM centering scratch are built once from A and shared by
// every Solve/Polish call, so repeated solves of the same problem shape
// stop allocating after the first. B, C, L and U are read at every call,
// so a caller may rewrite them in place between calls. Results are
// bit-identical to a fresh session's on the same numbers — every scratch
// buffer is fully overwritten before it is read.
//
// A Session is not safe for concurrent use; it serves a sequential query
// stream, matching the model (one network, one round structure).
type Session struct {
	prob    *Problem
	backend string
	solve   ATDASolve
	// pstats are the live preconditioner counters of the backend (nil for
	// backends without a combinatorial preconditioner); cumulative over
	// the session, reported per solve in every Solution.
	pstats *PrecondStats
	scr    *scratch
	// lev is the exact leverage of every Lewis iteration (exactLeverage),
	// its Gram buffer and column index built once.
	lev LeverageFn

	// The problem shape and the IPM constants it fixes.
	m, n  int
	p     float64 // Lewis exponent 1 − 1/log(4m)
	c0    float64 // weight regularization n/(2m)
	cK    float64
	cNorm float64
}

// NewSession validates prob, instantiates the backend ResolveBackend
// names for prob.Backend (DefaultBackend when empty; an unknown name fails
// here with ErrBackendUnknown, before any solve starts) and allocates the
// shared scratch. A and the backend are bound here; B, C, L and U are
// read, and the bounds validated again, at every Solve/Polish.
func NewSession(prob *Problem) (*Session, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	backend, err := ResolveBackend(prob.Backend)
	if err != nil {
		return nil, err
	}
	solve, pstats, err := NewBackendSolverStats(backend, prob.A)
	if err != nil {
		return nil, err
	}
	m, n := prob.M(), prob.N()
	cK := 2 * math.Log(4*float64(m))
	return &Session{
		prob: prob, backend: backend, solve: solve, pstats: pstats,
		scr: newScratch(m, n),
		lev: exactLeverage(prob.A),
		m:   m, n: n,
		p:     1 - 1/math.Log(4*float64(m)),
		c0:    float64(n) / (2 * float64(m)),
		cK:    cK,
		cNorm: 24 * math.Sqrt(4*cK),
	}, nil
}

// Backend returns the name of the registered backend the session runs.
func (sess *Session) Backend() string { return sess.backend }

// newIPM builds the per-call solver state over the session's shared
// backend, leverage and scratch and the problem's current bounds.
func (sess *Session) newIPM(ctx context.Context, par Params) (*ipm, error) {
	bar, err := NewBarriers(sess.prob.L, sess.prob.U)
	if err != nil {
		return nil, err
	}
	s := &ipm{Session: sess, bar: bar, ctx: ctx, par: par, startRounds: par.Net.Rounds()}
	if sess.pstats != nil {
		s.startRefreshes = sess.pstats.Refreshes
	}
	return s, nil
}

// checkStart verifies that x0 is a strictly feasible starting point.
func (s *ipm) checkStart(x0 []float64) error {
	if len(x0) != s.m {
		return fmt.Errorf("lp: x0 has %d entries, want %d", len(x0), s.m)
	}
	if !s.bar.Interior(x0) {
		return fmt.Errorf("%w: x0 is not strictly interior", ErrInfeasible)
	}
	if r := s.prob.Residual(x0); r > 1e-6*(1+linalg.Norm2(s.prob.B)) {
		return fmt.Errorf("%w: x0 violates Aᵀx = b by %g", ErrInfeasible, r)
	}
	return nil
}

// repairFeasibility pulls x back onto the affine manifold Aᵀx = b with the
// least-squares correction x ← x − A(AᵀA)⁻¹(Aᵀx − b), absorbing the
// constraint drift that inexact projection solves accumulate. Best-effort:
// on solver failure x is left unchanged and the caller's feasibility check
// decides.
func (sess *Session) repairFeasibility(ctx context.Context, x []float64) {
	r := make([]float64, sess.n)
	sess.prob.A.MulVecTTo(r, x)
	for i, bi := range sess.prob.B {
		r[i] -= bi
	}
	if linalg.Norm2(r) == 0 {
		return
	}
	z, _, err := sess.solve(ctx, linalg.Ones(sess.m), r)
	if err != nil {
		return
	}
	az := make([]float64, sess.m)
	sess.prob.A.MulVecTo(az, z)
	for i := range x {
		x[i] -= az[i]
	}
}

// initialWeights computes the regularized Lewis weights at x (Algorithm 9
// line 1).
func (s *ipm) initialWeights(x []float64) ([]float64, error) {
	m := s.m
	base := make([]float64, m)
	phi2 := s.bar.D2(x)
	for i := range base {
		base[i] = 1 / math.Sqrt(phi2[i])
	}
	w, _, err := ComputeInitialWeights(s.lev, base, s.p, s.n, m)
	if err != nil {
		return nil, fmt.Errorf("lp: initial weights: %w", err)
	}
	for i := range w {
		w[i] += s.c0
	}
	return w, nil
}

// finish clones the iterate and weights into an owned Solution.
func (s *ipm) finish(x, w []float64) *Solution {
	s.counts.X = linalg.Clone(x)
	s.counts.Weights = linalg.Clone(w)
	s.counts.Objective = s.prob.Objective(x)
	s.counts.Rounds = s.par.Net.Rounds() - s.startRounds
	if s.pstats != nil {
		s.counts.PrecondBuilds = s.pstats.Builds
		s.counts.PrecondRefreshes = s.pstats.Refreshes - s.startRefreshes
	}
	out := s.counts
	return &out
}

// Solve runs LPSolve (Algorithm 9) from the strictly feasible x0, reusing
// the session's backend and scratch: center x0 against the artificial
// cost d = −w·φ′(x0) down to a tiny t₁, then follow the weighted central
// path for the true cost up to t₂ = 2m/ε. The returned point satisfies
// Aᵀx = b, l < x < u and (for converged runs) cᵀx ≤ OPT + O(ε).
// With Params.Stop set, phase 2 ends at the first step Stop accepts, so
// Theorem 1.4's step count is a ceiling; the early iterate is only as
// good as what Stop checked.
//
// ctx is checked at every outer path step and inside the CG/Chebyshev
// kernels of the linear-solve backends; on cancellation or deadline the
// error satisfies errors.Is(err, ctx.Err()).
func (sess *Session) Solve(ctx context.Context, x0 []float64, eps float64, par Params) (*Solution, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("lp: eps must be positive, got %g", eps)
	}
	s, err := sess.newIPM(ctx, par)
	if err != nil {
		return nil, err
	}
	if err := s.checkStart(x0); err != nil {
		return nil, err
	}
	m := sess.m

	w, err := s.initialWeights(x0)
	if err != nil {
		return nil, err
	}

	// Artificial centering cost: with d = −w·φ′(x0) the point x0 is exactly
	// central at t = 1 (the gradient t·d + w·φ′ vanishes).
	d := make([]float64, m)
	phi1 := s.bar.D1(x0)
	for i := range d {
		d[i] = -w[i] * phi1[i]
	}
	bigU := sess.prob.BoundU(x0)
	t1 := 1 / (16 * math.Pow(float64(m), 1.5) * bigU * bigU)
	t2 := 2 * float64(m) / eps

	x := linalg.Clone(x0)
	s.phase = 1
	x, w, err = s.pathFollowing(x, w, 1, t1, d, nil)
	if err != nil {
		return nil, fmt.Errorf("lp: phase 1: %w", err)
	}
	s.phase = 2
	x, w, err = s.pathFollowing(x, w, t1, t2, sess.prob.C, par.Stop)
	if err != nil {
		return nil, fmt.Errorf("lp: phase 2: %w", err)
	}
	return s.finish(x, w), nil
}

// Polish re-centers a previously computed iterate at the final path
// parameter t₂ = 2m/ε with finalCenterings centerings — the warm-start
// path for repeated solves of an unchanged problem (e.g. batch flow
// queries on the same terminals). x0 and w0 are a prior Solution's X and
// Weights; both must have m entries. The polished point is NOT guaranteed
// optimal unless x0 was already near the central path at t₂ — callers
// must certify the result (as the flow pipeline does) and fall back to a
// full Solve on failure.
func (sess *Session) Polish(ctx context.Context, x0, w0 []float64, eps float64, par Params) (*Solution, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("lp: eps must be positive, got %g", eps)
	}
	m := sess.m
	if len(x0) != m || len(w0) != m {
		return nil, fmt.Errorf("lp: x0 has %d entries and w0 %d, want %d", len(x0), len(w0), m)
	}
	s, err := sess.newIPM(ctx, par)
	if err != nil {
		return nil, err
	}
	s.phase = 3
	// Inexact (CG-based) projection backends let a long path following
	// drift off the constraint manifold by poly(1/m); pull the prior
	// iterate back with one least-squares correction before re-centering,
	// so the strict feasibility check below keeps its tight tolerance.
	x0 = linalg.Clone(x0)
	sess.repairFeasibility(ctx, x0)
	if err := s.checkStart(x0); err != nil {
		return nil, err
	}
	x, w := linalg.Clone(x0), linalg.Clone(w0)
	t2 := 2 * float64(m) / eps
	for i := 0; i < finalCenterings; i++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("lp: polish canceled: %w", ctxErr)
		}
		x, w, err = s.center(x, w, t2, sess.prob.C)
		if err != nil {
			return nil, fmt.Errorf("lp: polish: %w", err)
		}
		if s.par.Progress != nil {
			s.par.Progress(s.phase, i+1, t2)
		}
	}
	return s.finish(x, w), nil
}

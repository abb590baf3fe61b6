package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bcclap/internal/linalg"
	"bcclap/internal/sim"
)

// ErrInfeasible is returned (wrapped) when the supplied starting point is
// not strictly feasible for the problem: outside the box interior or
// violating the equality constraints. Callers detect it with errors.Is.
var ErrInfeasible = errors.New("lp: starting point is not strictly feasible")

// Params carries the per-run inputs of LPSolve. The method's tuning
// values are fixed constants (see the package comment and the const block
// below); each t-step runs exactly one centering, as in Algorithm 10.
type Params struct {
	// Net, if non-nil, receives round accounting.
	Net *sim.Network
	// Progress, if non-nil, is invoked after every path step with the phase
	// (1 = artificial cost, 2 = true cost), the cumulative path-step count
	// and the current path parameter t. Observability only; it must be fast
	// and must not mutate solver state.
	Progress func(phase, step int, t float64)
	// Stop, if non-nil, is called with the iterate after every phase-2
	// path step of Session.Solve (after Progress). When it returns true,
	// Solve returns that iterate and its weights at once, without the
	// remaining path steps or the final centerings; every earlier iterate
	// is the one a nil Stop produces. x is the solver's own buffer: Stop
	// must neither modify nor retain it. Phase 1 and Polish never call it.
	Stop func(x []float64) bool
}

// Practical values for the paper's (m, n)-dependent constants, keeping the
// asymptotic shapes of Theorem 1.4 while converging in float64. The
// paper's Algorithm 7 clamps each Lewis-weight step to the band
// r = p²(4−p)/2²⁰ and runs T = Θ((p + 1/p)·log(pn/η)) iterations; r is
// tiny because the proof tracks a local contraction, and in float64 a wide
// band with a few damped fixed-point steps reaches the same fixed point.
const (
	alphaScale      = 0.4    // t-step α = 0.4/√n (paper: R/(1600√n·log²m))
	finalCenterings = 12     // extra centerings at t_end (paper: 4c_k·log(1/η))
	maxPathSteps    = 200000 // safety cap on total t-steps
	lewisBand       = 0.9    // Lewis clamp band r around w0 (paper: p²(4−p)/2²⁰)
	lewisIters      = 8      // Lewis iterations T per centering
	lewisFloor      = 1e-10  // floor on Lewis weights, for numerical safety
	initWeightSteps = 400    // cap on the Algorithm 8 homotopy length
)

// centeringBits is the message size of a centering's coordinate
// broadcasts, computed once: sim.BitsForFloat takes a logarithm, and a
// centering charges it twice whether or not a network is attached.
var centeringBits = sim.BitsForFloat(1e9, 1e-12)

// Solution is the result of Solve.
type Solution struct {
	// X is the final (strictly feasible) iterate.
	X []float64
	// Weights is the final regularized Lewis weight vector; feeding it back
	// through Session.Polish warm-starts a re-solve of the same problem.
	Weights []float64
	// Objective is cᵀX.
	Objective float64
	// PathSteps counts t-updates across both phases (the quantity
	// Theorem 1.4 bounds by Õ(√n·log(U/ε))).
	PathSteps int
	// Centerings counts CenteringInexact invocations.
	Centerings int
	// CGIterations accumulates the inner iterations of the projection
	// (AᵀDA)-solves across all centerings (0 for the dense backend).
	CGIterations int
	// PrecondBuilds and PrecondRefreshes report the backend's
	// combinatorial-preconditioner counters (0 for backends without one).
	// PrecondBuilds is cumulative over the owning session, so a count that
	// stays at 1 across repeated solves is direct evidence the symbolic
	// structure was reused (and 0 shows the edgeless-forest fallback).
	// PrecondRefreshes counts the numeric refactorizations made during
	// this solve only: one per projection solve, so one per centering
	// plus one per feasibility repair.
	PrecondBuilds    int
	PrecondRefreshes int
	// Rounds is the simulator round count consumed by this solve (0 without
	// a network).
	Rounds int
}

// scratch holds the centering buffers, allocated once per problem shape and
// reused across every path step — and, through a Session, across solves
// (the IPM performs Õ(√n) centerings; per-step allocation was the dominant
// garbage source before the LinOp refactor). Every buffer is fully written
// before it is read in each centering, so reuse never leaks state between
// solves and results stay bit-identical to a fresh allocation.
type scratch struct {
	phi1, phi2, phi2New []float64 // barrier derivatives at x / xNew
	q, pq               []float64 // centrality direction and projection
	dx, xNew            []float64 // Newton step
	base, z, dvec, grad []float64 // weight-update intermediates
	l, wNew             []float64 // mixed-ball radii, next weights
	tmp, rhs, asol      []float64 // applyProjection temporaries
}

// newScratch sizes the reusable centering buffers for an m×n problem.
func newScratch(m, n int) *scratch {
	v := func(k int) []float64 { return make([]float64, k) }
	s := &scratch{}
	s.phi1, s.phi2, s.phi2New = v(m), v(m), v(m)
	s.q, s.pq = v(m), v(m)
	s.dx, s.xNew = v(m), v(m)
	s.base, s.z, s.dvec, s.grad = v(m), v(m), v(m), v(m)
	s.l, s.wNew = v(m), v(m)
	s.tmp, s.asol = v(m), v(m)
	s.rhs = v(n)
	return s
}

// ipm carries one solver run over its session's backend, scratch and
// shape constants.
type ipm struct {
	*Session
	bar    *Barriers // from the problem's bounds at solve start
	ctx    context.Context
	par    Params
	phase  int // 1 = artificial cost, 2 = true cost, 3 = polish
	counts Solution

	// Counter readings at solve start, so Solution reports this solve's
	// share of the session-lifetime network and refresh counters.
	startRounds, startRefreshes int
}

// pathFollowing implements Algorithm 10: one centering per multiplicative
// t-step clamped by median to t_end, then polish with finalCenterings
// extra centerings at t_end. A non-nil stop is consulted after every path
// step and ends the phase at once, final centerings included, when it
// returns true. The context is polled once per outer iteration, so
// cancellation surfaces within one path step.
func (s *ipm) pathFollowing(x, w []float64, tStart, tEnd float64, c []float64, stop func(x []float64) bool) ([]float64, []float64, error) {
	t, alpha := tStart, alphaScale/math.Sqrt(float64(max(s.n, 1)))
	var err error
	for t != tEnd {
		if err := s.ctx.Err(); err != nil {
			return x, w, fmt.Errorf("lp: canceled after %d path steps: %w", s.counts.PathSteps, err)
		}
		if s.counts.PathSteps >= maxPathSteps {
			return x, w, fmt.Errorf("lp: exceeded %d path steps (t = %g, target %g)", maxPathSteps, t, tEnd)
		}
		x, w, err = s.center(x, w, t, c)
		if err != nil {
			return x, w, err
		}
		t = linalg.Median3((1-alpha)*t, tEnd, (1+alpha)*t)
		s.counts.PathSteps++
		if s.par.Progress != nil {
			s.par.Progress(s.phase, s.counts.PathSteps, t)
		}
		if stop != nil && stop(x) {
			return x, w, nil
		}
	}
	for i := 0; i < finalCenterings; i++ {
		if err := s.ctx.Err(); err != nil {
			return x, w, fmt.Errorf("lp: canceled during final centerings: %w", err)
		}
		x, w, err = s.center(x, w, tEnd, c)
		if err != nil {
			return x, w, err
		}
	}
	return x, w, nil
}

// center implements CenteringInexact (Algorithm 11): one projected Newton
// step on the weighted barrier plus one multiplicative weight update toward
// the fresh approximate Lewis weights, steered through the mixed-norm-ball
// projection and scaled by the centrality measure δ.
//
// The returned x and w slices are the reusable scratch buffers (every
// write is elementwise against the same index of the inputs, so aliasing
// across successive calls is safe); Solve clones the final iterate before
// handing it to the caller.
func (s *ipm) center(x, w []float64, t float64, c []float64) ([]float64, []float64, error) {
	s.counts.Centerings++
	m := s.m
	phi1, phi2 := s.scr.phi1, s.scr.phi2
	s.bar.D1To(phi1, x)
	s.bar.D2To(phi2, x)

	// q = (t·c + w·φ′(x)) / (w·√φ″(x)).
	q := s.scr.q
	for i := 0; i < m; i++ {
		q[i] = (t*c[i] + w[i]*phi1[i]) / (w[i] * math.Sqrt(phi2[i]))
	}
	pq, err := s.applyProjection(q, w, phi2)
	if err != nil {
		return x, w, err
	}
	delta := linalg.NormInf(pq) + s.cNorm*linalg.WeightedNorm(pq, w)

	// Newton step dx = −Φ″^{-1/2}·P_{x,w} q, damped to stay interior.
	dx := s.scr.dx
	for i := 0; i < m; i++ {
		dx[i] = -pq[i] / math.Sqrt(phi2[i])
	}
	step := s.bar.StepToBoundary(x, dx, 0.05)
	if step > 1 {
		step = 1
	}
	xNew := s.scr.xNew
	for i := range xNew {
		xNew[i] = x[i] + 0.99*step*dx[i]
	}
	if !s.bar.Interior(xNew) {
		return x, w, fmt.Errorf("lp: Newton step left the domain")
	}
	// Two distributed matrix-vector products per centering (A and Aᵀ),
	// one coordinate broadcast each.
	for phase := 0; phase < 2; phase++ {
		s.par.Net.BroadcastAll(centeringBits)
	}

	// Weight update (Algorithm 11 lines 4–6). We compute the fresh
	// regularized Lewis weights at xNew and move log(w) toward them through
	// the mixed-ball projection of the smoothed-potential gradient.
	phi2New := s.scr.phi2New
	s.bar.D2To(phi2New, xNew)
	base := s.scr.base
	for i := range base {
		base[i] = 1 / math.Sqrt(phi2New[i])
	}
	apx, err := ComputeApxWeights(s.lev, base, s.p, w, lewisIters)
	if err != nil {
		return x, w, err
	}
	z := s.scr.z
	for i := range z {
		// Regularize as in the definition of g(x) (Definition 4.3); this
		// also keeps the logs bounded.
		z[i] = math.Log(apx[i] + s.c0)
	}
	dvec := s.scr.dvec
	for i := range dvec {
		dvec[i] = z[i] - math.Log(math.Max(w[i], 1e-300))
	}
	grad := s.scr.grad
	softmaxGradientTo(grad, dvec)
	l := s.scr.l
	for i := range l {
		l[i] = s.cNorm * math.Sqrt(math.Max(w[i], 1e-300))
	}
	proj := ProjectMixedBall(grad, l, s.par.Net)
	scale := (1 - 6/(7*s.cK)) * math.Min(delta, 1)
	wNew := s.scr.wNew
	for i := range wNew {
		u := linalg.Clamp(scale*proj[i], -0.5, 0.5)
		wNew[i] = w[i] * math.Exp(u)
		// Keep weights inside the regularized band [c0/2, 3n/2].
		wNew[i] = linalg.Clamp(wNew[i], s.c0/2, 1.5*float64(s.n)+1)
	}
	return xNew, wNew, nil
}

// applyProjection computes P_{x,w}q = q − W⁻¹A_x(A_xᵀW⁻¹A_x)⁻¹A_xᵀq with
// A_x = Φ″(x)^{−1/2}A, using one (AᵀDA)-solve with D = 1/(w·φ″) through the
// configured backend. The result lands in the reusable scr.pq buffer.
func (s *ipm) applyProjection(q, w, phi2 []float64) ([]float64, error) {
	m := s.m
	// A_xᵀ q = Aᵀ(Φ″^{−1/2} q).
	tmp := s.scr.tmp
	for i := 0; i < m; i++ {
		tmp[i] = q[i] / math.Sqrt(phi2[i])
	}
	s.prob.A.MulVecTTo(s.scr.rhs, tmp)
	// Reuse tmp for the solve diagonal: rhs is already extracted.
	for i := 0; i < m; i++ {
		tmp[i] = 1 / (w[i] * phi2[i])
	}
	sol, iters, err := s.solve(s.ctx, tmp, s.scr.rhs)
	s.counts.CGIterations += iters
	if err != nil {
		return nil, fmt.Errorf("lp: projection solve: %w", err)
	}
	s.prob.A.MulVecTo(s.scr.asol, sol)
	out := s.scr.pq
	for i := 0; i < m; i++ {
		out[i] = q[i] - s.scr.asol[i]/(w[i]*math.Sqrt(phi2[i]))
	}
	return out, nil
}

// softmaxGradientTo writes the normalized gradient of the smoothing
// potential Φ_μ(v) = Σ_i (e^{μv_i} + e^{−μv_i}) used by Algorithm 11 into
// out. The projection is invariant under positive scaling of its input, so
// the gradient is normalized (and μ chosen to avoid overflow).
func softmaxGradientTo(out, v []float64) {
	maxAbs := linalg.NormInf(v)
	mu := 1.0
	if maxAbs > 0 {
		mu = math.Min(8, 30/maxAbs)
	}
	for i, d := range v {
		out[i] = math.Exp(mu*d) - math.Exp(-mu*d)
	}
	if n := linalg.Norm2(out); n > 0 {
		linalg.Scale(1/n, out)
	}
}

package lapsolver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
	"bcclap/internal/sim"
	"bcclap/internal/sparsify"
)

// ErrDisconnected is returned when the input graph is not connected (the
// Laplacian system then decomposes and a single solve is ill-posed).
var ErrDisconnected = errors.New("lapsolver: graph is not connected")

// Solver answers Laplacian systems L_G x = b to high precision after a
// one-time sparsifier preprocessing (Theorem 1.3).
type Solver struct {
	g   *graph.Graph
	h   *graph.Graph
	lg  *linalg.CSR
	net *sim.Network

	chol *linalg.Dense // Cholesky factor of L_H + (c/n)·11ᵀ
	c    float64       // rank-correction coefficient

	// hiScale and kappa describe the measured pencil bounds
	// lo·L_H ≼ L_G ≼ hi·L_H: the solver preconditions with B := hiScale·L_H
	// so that A ≼ B ≼ κA with κ = hi/lo. For a true (1±1/2) sparsifier
	// this reduces to the paper's κ = 3; for weaker sparsifiers (smaller
	// practical bundle sizes) the estimate keeps Chebyshev convergent.
	hiScale float64
	kappa   float64

	// PreprocessRounds is the simulator round cost of building H and making
	// it global knowledge.
	PreprocessRounds int
	floatBits        int

	// Per-instance solve state, allocated once and reused across Solve
	// calls (a Solver is not safe for concurrent use, matching the model:
	// one network, one sequential round structure).
	ws    *linalg.Workspace
	mulA  linalg.LinOp // L_G with distributed-round accounting
	pb    []float64    // projected right-hand side
	y     []float64    // Chebyshev iterate
	resid []float64    // residual scratch for the CG safeguard
}

// Config tunes the solver.
type Config struct {
	// Sparsify gives the sparsifier parameters; the zero value selects
	// PracticalParams(n, m, 1/2) as in the proof of Theorem 1.3 (a
	// (1±1/2) sparsifier suffices, giving κ = 3).
	Sparsify sparsify.Params
	// Rand supplies randomness; nil seeds a default.
	Rand *rand.Rand
	// Net, if non-nil, receives round accounting.
	Net *sim.Network
}

// New builds the solver: it runs the Broadcast CONGEST sparsifier on g and
// factorizes the (rank-corrected) sparsifier Laplacian internally — after
// the algorithm every vertex knows H, so this factorization is free in the
// model.
func New(g *graph.Graph, cfg Config) (*Solver, error) {
	if !g.Connected() {
		return nil, ErrDisconnected
	}
	rnd := cfg.Rand
	if rnd == nil {
		rnd = rand.New(rand.NewSource(42))
	}
	par := cfg.Sparsify
	if par.K == 0 {
		par = sparsify.PracticalParams(g.N(), g.M(), 0.5)
	}
	startRounds := cfg.Net.Rounds()
	sp := sparsify.Adhoc(g, par, rnd, cfg.Net)
	h := sp.H
	if !h.Connected() {
		// A too-aggressive practical bundle size can disconnect tiny
		// graphs; fall back to the trivial sparsifier H = G, which is
		// always valid (and what the paper's parameters would produce).
		h = g.Clone()
	}
	s := &Solver{g: g, h: h, lg: g.Laplacian(), net: cfg.Net}
	s.PreprocessRounds = cfg.Net.Rounds() - startRounds
	// Factorize L_H + (c/n)·11ᵀ. For b ⊥ 1 the solution of the corrected
	// PD system coincides with the pseudo-inverse action of L_H.
	n := g.N()
	s.c = h.TotalWeight() / float64(n)
	if s.c <= 0 {
		s.c = 1
	}
	lh := h.Laplacian().Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lh.Inc(i, j, s.c/float64(n))
		}
	}
	chol, err := lh.Cholesky()
	if err != nil {
		return nil, fmt.Errorf("lapsolver: factorize sparsifier: %w", err)
	}
	s.chol = chol
	s.floatBits = sim.BitsForFloat(g.MaxWeight()*float64(n), 1e-12)

	// Estimate the pencil range lo ≤ xᵀL_G x / xᵀL_H x ≤ hi. This is
	// internal computation (both G's own rows and all of H are known to
	// every vertex after preprocessing), so it costs no rounds.
	probe := rand.New(rand.NewSource(123))
	solveH := func(b []float64) []float64 {
		return linalg.ProjectOutOnes(linalg.CholSolve(s.chol, linalg.ProjectOutOnes(b)))
	}
	lo, hi := linalg.PencilBounds(g.WEdges(), h.WEdges(), n, solveH, 4, 16, probe.Float64)
	if !(lo > 0) || math.IsInf(hi, 1) || math.IsNaN(hi) {
		lo, hi = 0.5, 1.5 // paper's nominal (1±1/2) band
	}
	// Safety margins: power iteration gives inner estimates of the range.
	hi *= 1.25
	lo /= 1.25
	s.hiScale = hi
	s.kappa = hi / lo
	if s.kappa < 3 {
		s.kappa = 3
	}
	// One-time solve state: the CSR of L_G doubles as the LinOp applied at
	// every iteration (wrapped for round accounting), and all iterate
	// vectors live in a reusable workspace.
	s.ws = linalg.NewWorkspace()
	s.pb = make([]float64, n)
	s.y = make([]float64, n)
	s.resid = make([]float64, n)
	s.mulA = linalg.FuncOp(func(dst, x []float64) {
		// One distributed matrix-vector product: every vertex broadcasts
		// its coordinate with O(log(nU/ε)) bits.
		s.net.BroadcastAll(s.floatBits)
		s.lg.MulVecTo(dst, x)
	})
	return s, nil
}

// Sparsifier returns the sparsifier H the solver preconditions with.
func (s *Solver) Sparsifier() *graph.Graph { return s.h }

// Stats reports what a Solve did.
type Stats struct {
	// Iterations is the number of Chebyshev iterations (Corollary 2.4
	// predicts O(log(1/ε)) since κ = 3).
	Iterations int
	// Rounds is the simulator round cost of this instance (0 without a
	// network): each iteration broadcasts one vector coordinate per vertex,
	// costing ⌈O(log(nU/ε))/B⌉ rounds.
	Rounds int
	// ResidualNorm is ‖b − L_G y‖₂ at termination.
	ResidualNorm float64
}

// SolveCtx returns y with ‖x − y‖_{L_G} ≤ ε‖x‖_{L_G} for the (mean-zero)
// solution x of L_G x = b. The Chebyshev/CG inner loops poll ctx and
// return an error satisfying errors.Is(err, ctx.Err()) on cancellation or
// deadline, leaving the solver reusable for the next instance. b is
// projected orthogonal to the all-ones nullspace first, as in the model
// every vertex holds one coordinate and the projection is a single
// aggregate broadcast.
func (s *Solver) SolveCtx(ctx context.Context, b []float64, eps float64) ([]float64, Stats, error) {
	if len(b) != s.g.N() {
		return nil, Stats{}, fmt.Errorf("lapsolver: b has %d entries, want %d", len(b), s.g.N())
	}
	if eps <= 0 || eps > 0.5 {
		return nil, Stats{}, fmt.Errorf("lapsolver: eps %g outside (0, 1/2]", eps)
	}
	copy(s.pb, b)
	linalg.ProjectOutOnesInPlace(s.pb)
	startRounds := s.net.Rounds()
	// B := hi·L_H, the measured analogue of Corollary 2.4's (1+1/2)·L_H;
	// solving in B is internal computation (H is global knowledge). The
	// Cholesky factor was computed once in New and is reused verbatim here.
	solveBTo := func(dst, r []float64) {
		copy(dst, r)
		linalg.ProjectOutOnesInPlace(dst)
		linalg.CholSolveInPlace(s.chol, dst)
		linalg.Scale(1/s.hiScale, dst)
		linalg.ProjectOutOnesInPlace(dst)
	}
	chres, err := linalg.PreconditionedChebyshevTo(ctx, s.y, s.mulA, solveBTo, s.pb, s.kappa, eps, s.ws)
	st := Stats{Iterations: chres.Iterations, ResidualNorm: chres.ResidualNorm}
	if err != nil {
		st.Rounds = s.net.Rounds() - startRounds
		return nil, st, fmt.Errorf("lapsolver: %w", err)
	}
	if bn := linalg.Norm2(s.pb); chres.ResidualNorm > eps*bn {
		// Safeguard for sparsifiers whose measured pencil band was an
		// underestimate: finish with preconditioned CG using the same
		// preconditioner. Same per-iteration communication cost.
		extraTol := eps * 1e-2
		y2 := s.ws.Get(len(s.pb))
		cgIters, err := linalg.CGTo(ctx, y2, s.mulA, s.pb, extraTol, 6*s.g.N()+200, solveBTo, s.ws)
		st.Iterations += cgIters
		// A canceled CG aborts the instance (err then wraps ctx.Err()); a
		// cancellation arriving only after CG converged does not discard
		// the finished solution.
		if err != nil && ctx.Err() != nil {
			s.ws.Put(y2)
			st.Rounds = s.net.Rounds() - startRounds
			return nil, st, fmt.Errorf("lapsolver: %w", err)
		}
		if err == nil {
			copy(s.y, y2)
			s.lg.MulVecTo(s.resid, s.y)
			for i := range s.resid {
				s.resid[i] = s.pb[i] - s.resid[i]
			}
			st.ResidualNorm = linalg.Norm2(s.resid)
		}
		s.ws.Put(y2)
	}
	st.Rounds = s.net.Rounds() - startRounds
	return linalg.ProjectOutOnes(s.y), st, nil
}

// SolveExact solves L_G x = b (b ⊥ 1 enforced) by conjugate gradients to
// near machine precision; the reference the tests compare against.
func SolveExact(g *graph.Graph, b []float64) ([]float64, error) {
	return linalg.CGLaplacian(g.Laplacian(), b, 1e-12, 20*g.N()+1000)
}

// ErrorInLNorm returns ‖x − y‖_{L} for the Laplacian of g: the error
// metric of Theorem 1.3.
func ErrorInLNorm(g *graph.Graph, x, y []float64) float64 {
	d := linalg.Sub(x, y)
	return math.Sqrt(linalg.LaplacianQuadForm(g.WEdges(), d))
}

package bcclap

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bcclap/internal/flow"
	"bcclap/internal/lapsolver"
	"bcclap/internal/lp"
	"bcclap/internal/pool"
)

// seededRand is the deterministic stream constructor shared by the session
// layer.
func seededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Stats is the unified per-solve observability record surfaced identically
// by flow, LP and Laplacian sessions. Fields that do not apply to a given
// solver are zero.
type Stats struct {
	// PathSteps counts interior-point t-updates (the Õ(√n·log(U/ε)) of
	// Theorems 1.1/1.4); 0 for Laplacian solves and warm-started batch
	// queries (which skip path following entirely).
	PathSteps int
	// Centerings counts CenteringInexact invocations.
	Centerings int
	// CGIterations accumulates inner iterations of the linear-solve
	// kernels: projection-solve CG for flow/LP sessions, Chebyshev plus
	// safeguard CG for Laplacian sessions.
	CGIterations int
	// PrecondBuilds and PrecondRefreshes report the backend's
	// combinatorial-preconditioner counters (csr-pcg; 0 elsewhere).
	// PrecondBuilds counts symbolic constructions (spanning forest +
	// elimination ordering) and is cumulative over the owning session: it
	// is paid once per session, so a count that stays at 1 across queries
	// is direct evidence the symbolic structure was reused, and 0 shows
	// the edgeless-forest (Jacobi) fallback. PrecondRefreshes counts the
	// numeric refactorizations made during this query only: one per
	// projection solve, so one per centering plus one per feasibility
	// repair.
	PrecondBuilds    int
	PrecondRefreshes int
	// Attempts is the number of fresh flow perturbation attempts (0 for a
	// warm-started batch query).
	Attempts int
	// Rounds is the simulated round cost of this solve (0 without a
	// network attached via WithNetwork).
	Rounds int
	// WallTime is the measured duration of this solve.
	WallTime time.Duration
	// ReusedPreprocessing reports that query-independent work (flow-LP
	// formulation + backend workspaces, or the Laplacian sparsifier) was
	// reused from an earlier call on this session.
	ReusedPreprocessing bool
	// WarmStarted reports that a batch query re-centered the previous
	// certified solution instead of re-running path following.
	WarmStarted bool
	// CacheHit reports that the result was served from a Service handle's
	// certified-result cache without touching the solver at all (always
	// false on direct FlowSolver queries). Cached answers are bit-identical
	// to fresh ones in value, cost and flow vector.
	CacheHit bool
	// Backend is the registered AᵀDA backend the session ran (flow/LP
	// sessions): the WithBackend name, else LPProblem.Backend for an LP
	// session, else "dense".
	Backend string
	// TraceID is the request-scoped trace identifier threaded from the
	// serving boundary (16 hex digits, minted per HTTP request or set via
	// telemetry.WithTraceID on the query context). Empty on direct solver
	// queries without a trace context. Never cached: a hit carries the
	// requesting call's trace, not the one that populated the entry.
	TraceID string
}

// FlowQuery is one (source, sink) pair for FlowSolver.SolveBatch.
type FlowQuery struct {
	S, T int
}

// FlowSolver is a reusable min-cost max-flow session (Theorem 1.1 as a
// service): NewFlowSolver ingests the digraph once, and each queried
// terminal pair lazily builds — then caches — the Section 5 LP
// formulation, CSR constraint structure and linear-solve backend
// workspaces, so repeated and batched queries pay only for the
// interior-point iterations. Every returned flow is certified exact
// (feasibility, maximality, cost optimality) before being returned.
//
// A FlowSolver is backed by a pool of independent worker sessions
// (internal/pool) — one worker by default, n with WithPoolSize. Solve and
// SolveBatch are safe for concurrent use, SolveBatch fans out across the
// workers, and queries are routed by terminal pair so results — including
// warm-start behavior — are bit-identical whatever the pool size. Each
// worker is a goroutine: shut the solver down with Drain or Close.
type FlowSolver struct {
	pool    *pool.Pool
	backend string
}

// PoolStats is a snapshot of a FlowSolver's pool counters (worker count,
// queries submitted/completed/failed, warm-start hits).
type PoolStats = pool.Stats

// NewFlowSolver builds a session over d. Construction fails fast on an
// empty digraph (ErrBadQuery) and on an unknown WithBackend name
// (ErrBackendUnknown, listing FlowBackends()); it does no numerical work
// beyond constructing the worker sessions (each with its own backend
// workspaces). WithNetwork is rejected when the solver has more than one
// worker: the round-accounting simulator is single-stream.
func NewFlowSolver(d *Digraph, opts ...Option) (*FlowSolver, error) {
	return newFlowSolver(d, newConfig(opts))
}

// newFlowSolver builds a FlowSolver from a resolved configuration (a
// Service tenant passes the one it keeps on its handle).
func newFlowSolver(d *Digraph, cfg config) (*FlowSolver, error) {
	fopts := flow.Options{
		Backend: cfg.backend,
		// The +11 offset fixes the perturbation stream every committed
		// result was certified under; changing it changes those answers
		// bit for bit.
		Seed: cfg.seed + 11,
		Net:  cfg.net,
	}
	if cfg.progress != nil {
		prg := cfg.progress
		fopts.Progress = func(attempt int) {
			prg(Event{Stage: "attempt", Attempt: attempt})
		}
		fopts.PathProgress = func(phase, step int, t float64) {
			prg(Event{Stage: "path-step", Phase: phase, Step: step, T: t})
		}
	}
	// Resolve the backend through the same path the worker sessions use,
	// so Stats.Backend reports the name actually run and unknown names
	// fail before any worker is built.
	backend, err := lp.ResolveBackend(cfg.backend)
	if err != nil {
		return nil, err
	}
	workers := max(cfg.poolSize, 1)
	// The round-accounting simulator's phase state is unsynchronized by
	// design (one network, one round structure); sharing it across workers
	// would interleave the accounting. One worker is still one stream.
	if cfg.net != nil && workers > 1 {
		return nil, fmt.Errorf("bcclap: WithNetwork needs a single-worker solver; drop WithPoolSize")
	}
	if err := checkNetwork(cfg.net, d.N()); err != nil {
		return nil, err
	}
	// Every worker session gets identical options (flow derives a fresh
	// per-query stream from the seed), so any worker answers any query
	// exactly as any other would. Each worker owns a private digraph
	// clone: PatchArcs mutates arc capacities/costs on the worker
	// goroutines, and a shared arc slice would race with reads on the
	// others — and a caller-held digraph is never mutated.
	p, err := pool.New(pool.Config{
		Workers: workers,
		New: func(int) (pool.Session, error) {
			return flow.NewSolver(d.Clone(), fopts)
		},
	})
	if err != nil {
		return nil, err
	}
	return &FlowSolver{pool: p, backend: backend}, nil
}

// Solve answers one (s, t) query under ctx. Malformed queries return
// ErrBadQuery before any solve work; cancellation aborts within one
// path-following iteration with an error satisfying
// errors.Is(err, ctx.Err()). Solve calls are deterministic: they produce
// bit-identical results to a fresh session with the same seed.
func (fs *FlowSolver) Solve(ctx context.Context, s, t int) (*FlowResult, error) {
	return fs.solve(ctx, s, t, false)
}

// solve answers one query on the pair's pinned worker, warm or cold (see
// flow.Solver.Solve). Service cache misses run warm, so a resolve after
// PatchArcs re-centers the pre-patch optimum.
func (fs *FlowSolver) solve(ctx context.Context, s, t int, warm bool) (*FlowResult, error) {
	res, err := fs.pool.Solve(ctx, flow.Query{S: s, T: t}, warm)
	if err != nil {
		return nil, err
	}
	return fs.newResult(res), nil
}

// SolveBatch answers a sequence of queries, validating all terminal pairs
// up front (any malformed pair fails the batch with ErrBadQuery before
// work starts). Repeated terminal pairs warm-start from the previous
// certified solution — skipping path following, which is where batch
// amortization comes from — and fall back to a cold solve whenever the
// exactness certificate rejects the shortcut, so batch answers are exactly
// as certified as single-query answers.
//
// The batch fans out across the worker sessions with at most pool-size
// concurrent solves. Terminal pairs stay pinned to workers, so per-pair
// order — and every certified result — is bit-identical to a one-worker
// solver's.
func (fs *FlowSolver) SolveBatch(ctx context.Context, queries []FlowQuery) ([]*FlowResult, error) {
	qs := make([]flow.Query, len(queries))
	for i, q := range queries {
		qs[i] = flow.Query{S: q.S, T: q.T}
	}
	results, err := fs.pool.SolveBatch(ctx, qs)
	if err != nil {
		return nil, err
	}
	out := make([]*FlowResult, len(results))
	for i, res := range results {
		out[i] = fs.newResult(res)
	}
	return out, nil
}

// PatchArcs applies an all-or-nothing set of arc capacity/cost deltas to
// every worker session, without rebuilding the solver: each answered
// terminal pair keeps its LP constraint matrix (which depends only on
// topology) and the IPM session with its linear-solve backend, and only
// its box bounds and start point are rewritten in place. The pairs also
// keep their warm-start state, so the next solve of an affected pair
// re-centers from the pre-patch optimum rather than re-running path
// following. Malformed delta sets (empty, index out of range, capacity
// driven non-positive) fail with ErrBadPatch before anything mutates.
// The patch is applied atomically with respect to queries: it enqueues
// on every worker and PatchArcs returns once all workers have folded it
// in, so no query started after PatchArcs returns sees pre-patch arcs.
// Concurrent callers must serialize PatchArcs against Solve/SolveBatch
// themselves when they need a precise ordering (the Service layer does).
func (fs *FlowSolver) PatchArcs(deltas []ArcDelta) error {
	wait, err := fs.patchAsync(deltas)
	if err != nil {
		return err
	}
	return wait()
}

// patchAsync enqueues the patch and returns a wait function. The service
// layer calls it while holding the handle write lock — the enqueue is the
// linearization point against queries — and waits after unlocking.
func (fs *FlowSolver) patchAsync(deltas []ArcDelta) (func() error, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("bcclap: %w: empty delta set", ErrBadPatch)
	}
	// Clone: the enqueued closure outlives this call, and callers may
	// reuse or mutate their slice as soon as we return.
	ds := append([]ArcDelta(nil), deltas...)
	wait, err := fs.pool.Patch(func(s pool.Session) error { return s.ApplyArcDeltas(ds) })
	if err != nil {
		if errors.Is(err, pool.ErrClosed) {
			return nil, fmt.Errorf("bcclap: %w", ErrSolverClosed)
		}
		return nil, err
	}
	return wait, nil
}

// Drain gracefully shuts the solver down: new queries are rejected with
// ErrSolverClosed, queued and running queries finish, and Drain returns
// nil once every worker has exited. If ctx expires first, the remaining
// work is aborted and Drain returns ctx.Err().
func (fs *FlowSolver) Drain(ctx context.Context) error { return fs.pool.Drain(ctx) }

// Close shuts the solver down immediately: later queries fail with
// ErrSolverClosed, queued queries fail, running solves are canceled
// within one solver iteration, and Close returns once every worker
// goroutine has exited. Safe to call after Drain, and more than once.
func (fs *FlowSolver) Close() { fs.pool.Close() }

// Closed reports whether shutdown (Drain or Close) has begun on this
// solver. Once true, Solve and SolveBatch fail with ErrSolverClosed.
func (fs *FlowSolver) Closed() bool { return fs.pool.Closed() }

// Backend returns the AᵀDA backend name this solver's sessions use: the
// WithBackend choice, or "dense" when none was named. It matches
// Stats.Backend on every result.
func (fs *FlowSolver) Backend() string { return fs.backend }

// PoolSize returns the number of worker sessions.
func (fs *FlowSolver) PoolSize() int { return fs.pool.Workers() }

// PoolStats snapshots the pool counters.
func (fs *FlowSolver) PoolStats() PoolStats { return fs.pool.Stats() }

func (fs *FlowSolver) newResult(res *flow.Result) *FlowResult {
	return &FlowResult{
		Value: res.Value,
		Cost:  res.Cost,
		Flows: res.Flows,
		Stats: Stats{
			PathSteps:           res.LPStats.PathSteps,
			Centerings:          res.LPStats.Centerings,
			CGIterations:        res.LPStats.CGIterations,
			PrecondBuilds:       res.LPStats.PrecondBuilds,
			PrecondRefreshes:    res.LPStats.PrecondRefreshes,
			Attempts:            res.Attempts,
			Rounds:              res.Rounds,
			WallTime:            res.WallTime,
			ReusedPreprocessing: res.ReusedForm,
			WarmStarted:         res.WarmStarted,
			Backend:             fs.backend,
		},
	}
}

// LPSolver is a reusable session for one linear program: the linear-solve
// backend and interior-point scratch are built once by NewLPSolver and
// shared by every Solve call. Not safe for concurrent use.
type LPSolver struct {
	sess *lp.Session
	cfg  config
	used bool
}

// NewLPSolver validates prob and builds the session. WithBackend overrides
// prob.Backend for this session only (prob itself is left untouched);
// unknown names fail here with ErrBackendUnknown.
func NewLPSolver(prob *LPProblem, opts ...Option) (*LPSolver, error) {
	cfg := newConfig(opts)
	if cfg.backend != "" {
		cp := *prob
		cp.Backend = cfg.backend
		prob = &cp
	}
	sess, err := lp.NewSession(prob)
	if err != nil {
		return nil, err
	}
	return &LPSolver{sess: sess, cfg: cfg}, nil
}

// Solve runs the Theorem 1.4 path-following method from the strictly
// feasible x0 to objective accuracy eps under ctx. An x0 outside the
// strict interior (or violating Aᵀx = b) returns ErrInfeasible.
func (l *LPSolver) Solve(ctx context.Context, x0 []float64, eps float64) (*LPSolution, Stats, error) {
	par := lp.Params{Net: l.cfg.net}
	if l.cfg.progress != nil {
		prg := l.cfg.progress
		par.Progress = func(phase, step int, t float64) {
			prg(Event{Stage: "path-step", Phase: phase, Step: step, T: t})
		}
	}
	start := time.Now()
	sol, err := l.sess.Solve(ctx, x0, eps, par)
	if err != nil {
		return nil, Stats{}, err
	}
	st := Stats{
		PathSteps:           sol.PathSteps,
		Centerings:          sol.Centerings,
		CGIterations:        sol.CGIterations,
		PrecondBuilds:       sol.PrecondBuilds,
		PrecondRefreshes:    sol.PrecondRefreshes,
		Rounds:              sol.Rounds,
		WallTime:            time.Since(start),
		ReusedPreprocessing: l.used,
		Backend:             l.sess.Backend(),
	}
	l.used = true
	return sol, st, nil
}

// NewLaplacianSession runs the one-time sparsifier preprocessing of
// Theorem 1.3 on g (connected, else ErrDisconnected) and returns a handle
// that answers repeated right-hand sides. WithSeed, WithNetwork and WithSparsifyParams apply.
func NewLaplacianSession(g *Graph, opts ...Option) (*LaplacianSolver, error) {
	cfg := newConfig(opts)
	if err := checkNetwork(cfg.net, g.N()); err != nil {
		return nil, err
	}
	s, err := lapsolver.New(g, lapsolver.Config{
		Sparsify: cfg.sparsifyParams,
		Rand:     seededRand(cfg.seed + 3),
		Net:      cfg.net,
	})
	if err != nil {
		if errors.Is(err, lapsolver.ErrDisconnected) {
			return nil, fmt.Errorf("bcclap: %w", ErrDisconnected)
		}
		return nil, err
	}
	return &LaplacianSolver{inner: s}, nil
}

// SolveCtx answers one (b, ε) instance under ctx, reusing the
// preprocessed sparsifier: O(log(1/ε)) preconditioned Chebyshev
// iterations, cancelable between iterations with an error satisfying
// errors.Is(err, ctx.Err()).
func (s *LaplacianSolver) SolveCtx(ctx context.Context, b []float64, eps float64) ([]float64, Stats, error) {
	start := time.Now()
	y, st, err := s.inner.SolveCtx(ctx, b, eps)
	stats := Stats{
		CGIterations:        st.Iterations,
		Rounds:              st.Rounds,
		WallTime:            time.Since(start),
		ReusedPreprocessing: true,
	}
	if err != nil {
		return nil, stats, err
	}
	return y, stats, nil
}

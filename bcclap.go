// Package bcclap is a Go implementation of "The Laplacian Paradigm in the
// Broadcast Congested Clique" (Forster, de Vos; PODC 2022): spectral
// sparsification and Laplacian solving in broadcast models, a Lee–Sidford
// style linear program solver built on those primitives, and an exact
// minimum-cost maximum-flow algorithm running in Õ(√n) simulated rounds.
//
// # Sessions
//
// The package is organized around reusable, context-aware solver sessions:
// construct a handle once, then answer many queries under explicit
// resource control. Everything that is query-independent — the flow-LP
// formulation and its CSR constraint structure, linear-solve backend
// workspaces, the Laplacian sparsifier of Theorem 1.3 — is built by the
// constructor and amortized across queries:
//
//	FlowSolver      — NewFlowSolver(d, opts...) then Solve(ctx, s, t) /
//	                  SolveBatch(ctx, queries): exact min-cost max-flow
//	                  (Thm 1.1) as a service; batch mode warm-starts
//	                  repeated terminal pairs from the previous certified
//	                  solution
//	LPSolver        — NewLPSolver(prob, opts...) then Solve(ctx, x0, eps):
//	                  LPs with Õ(√n·log(U/ε)) path steps (Thm 1.4)
//	LaplacianSolver — NewLaplacianSession(g, opts...) then
//	                  SolveCtx(ctx, b, eps): high-precision Laplacian
//	                  solving after one-time sparsifier preprocessing
//	                  (Thm 1.3)
//	SparsifyGraph   — (1±ε) spectral sparsifiers in Broadcast CONGEST
//	                  (Thm 1.2); one-shot by nature, same option set
//
// Sessions share one functional option vocabulary (WithBackend, WithSeed,
// WithNetwork, WithProgress, …), surface one Stats record per solve (path
// steps, CG iterations, rounds, wall time, reuse flags), and classify
// failures with sentinel errors usable with errors.Is: ErrBadQuery,
// ErrBackendUnknown, ErrDisconnected, ErrInfeasible, ErrNotCertified.
//
// Every Solve accepts a context.Context, threaded down through the flow
// retry loop, the interior-point path following, and the CG/Chebyshev
// inner loops (polled every few iterations, so the hot kernels stay
// allocation-free): cancellation or deadline aborts within one outer
// iteration with an error satisfying errors.Is(err, ctx.Err()).
//
// Sessions are deterministic: Solve calls on one FlowSolver produce
// bit-identical results to a fresh solver with the same seed. LPSolver
// and LaplacianSolver are single-goroutine: serve a sequential query
// stream per session.
//
// # Concurrent serving
//
// Every FlowSolver is backed by a pool of independent worker
// sessions — one by default, n with WithPoolSize(n) — each owning its own
// backend workspaces, so the allocation-free hot paths stay race-free
// without locks. The solver accepts Solve and SolveBatch from any number
// of goroutines, and SolveBatch fans out across the workers with bounded
// concurrency. Queries are routed by terminal pair — every pair always
// runs on the same worker, in submission order — so results, warm starts
// included, are bit-identical at every pool size. Each worker is a
// goroutine, so shut the solver down with Drain (graceful) or Close
// (immediate); PoolStats exposes the serving counters:
//
//	solver, err := bcclap.NewFlowSolver(d, bcclap.WithPoolSize(8))
//	defer solver.Close()
//	results, err := solver.SolveBatch(ctx, queries) // fans out, certified
//
// # Multi-tenant service
//
// Service is the top of the API for production serving: one process
// managing many named, versioned networks over the session/pool
// machinery. Register ingests a digraph under a name and returns a
// NetworkHandle — a FlowSolver with per-network option overrides
// layered over the service defaults — and Swap atomically replaces a
// tenant's network (bumping its monotonic version and draining the old
// solver) without disturbing other tenants:
//
//	svc := bcclap.NewService(bcclap.WithPoolSize(4))
//	h, err := svc.Register("prod", d)
//	res, err := h.Solve(ctx, s, t)     // certified; repeat queries hit the cache
//	err = h.Swap(d2)                    // version 2, cache invalidated
//
// Because every flow answer is exact and deterministic, each handle
// fronts its solver with a certified-result cache keyed by (network,
// version, s, t): hits return the previously certified result — value,
// cost and flow vector bit-identical to a fresh solve, Stats.CacheHit
// set — in O(1) without touching the solver. WithCacheSize bounds the
// per-network entry budget (0 disables); NetworkStats and ServiceStats
// expose hit/miss/eviction counters. Lifecycle errors carry their own
// sentinels: ErrNetworkUnknown, ErrNetworkExists, ErrNetworkBusy.
//
// # Durable state and incremental updates
//
// OpenService with WithStore(dir) makes the service restartable: every
// tenant mutation — Register, Swap, PatchArcs, Deregister — is appended
// to a CRC-checksummed write-ahead log in dir before it takes effect,
// the log is periodically folded into compacted snapshots
// (WithSnapshotEvery), and startup replays snapshot plus journal, so a
// restarted process serves every tenant at its exact pre-shutdown
// version with bit-identical answers and no re-registration.
// WithStoreSync selects the fsync policy (SyncAlways pays ~200× per
// record for a zero loss window; SyncNever defers flushing to the OS).
// Recovery truncates torn tails at the last complete record, so a crash
// mid-append never corrupts the journal.
//
// PatchArcs is the incremental alternative to Swap when the topology is
// unchanged: arc capacity/cost deltas (ArcDelta) are journaled, folded
// into the live worker sessions — which keep their LP structure, IPM
// sessions, backend workspaces and warm-start state, rewriting only each
// LP's bounds and start point in place, so the next resolve of an
// affected pair re-centers instead of re-running path following — and
// the cache is invalidated selectively: only entries whose flow routes
// through a modified arc are dropped, the rest are re-certified and
// migrated to the new version. Malformed deltas fail with ErrBadPatch before any
// state changes; mutations racing on one tenant fail with ErrNetworkBusy.
//
// cmd/bcclap-serve exposes the service over REST (PUT/GET/DELETE
// /v1/networks/{name}, PATCH /v1/networks/{name}/arcs, per-tenant /flow
// and /stats routes, durable with -data-dir).
//
// Every entry point optionally runs against the round-accounting simulator
// in internal/sim so that the paper's round-complexity claims can be
// measured; see EXPERIMENTS.md for the measured-vs-claimed record,
// including the session amortization measurements.
//
// # Linear-solve backends
//
// The interior-point pipeline reduces to repeated solves (AᵀDA)x = y. The
// strategy is pluggable through a backend registry shared by flow and LP
// sessions (WithBackend):
//
//	dense   — assemble AᵀDA and factorize it on every solve; the exact
//	          reference, O(n³) per solve
//	csr-pcg — matrix-free CG applying AᵀDA in one fused pass over A's
//	          rows, never materializing it, preconditioned by a
//	          spanning-forest incomplete Cholesky: one Kruskal pass over
//	          the flow network by arc multiplicity picks the forest once
//	          per session, and every solve refreshes its numerics — fewer
//	          inner CG iterations than the same CG on the edgeless
//	          (diagonal) forest (internal/flow's TestWorkCountsGolden
//	          asserts it); Stats.PrecondBuilds/PrecondRefreshes expose its
//	          counters
//
// Every backend serves only the projection solve: the Lewis weights'
// leverage scores come from one dense factorization per Lewis iteration,
// the same on every backend.
//
//	solver, err := bcclap.NewFlowSolver(d, bcclap.WithBackend("csr-pcg"))
//	defer solver.Close()
//	res, err := solver.Solve(ctx, s, t)
//
// With no WithBackend option every session runs dense, whatever the
// graph: its solves are exact, and it certified every instance of the
// measured sweeps, where csr-pcg fails some at n ≥ 24 (see
// EXPERIMENTS.md); the certificate, not the backend, decides the
// answer. FlowSolver.Backend and Stats.Backend report the resolved name.
// FlowBackends lists the registered names; unknown names fail at session
// construction with ErrBackendUnknown. All matrix-vector products ride on
// one serial sparse kernel, so a solve's bits do not depend on the host.
package bcclap

import (
	"fmt"
	"math/rand"

	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/lapsolver"
	"bcclap/internal/lp"
	"bcclap/internal/sim"
	"bcclap/internal/sparsify"
)

// Graph is a weighted undirected multigraph (re-exported from the graph
// substrate).
type Graph = graph.Graph

// Digraph is a directed graph with integer capacities and costs.
type Digraph = graph.Digraph

// ArcDelta is one incremental arc mutation for PatchArcs: additive
// adjustments to the capacity and cost of the arc at index Arc (the
// AddArc return value / Arcs() position). Deltas never change topology —
// arcs are not added or removed — which is what lets a patched solver
// keep its LP constraint structure and warm-start state.
type ArcDelta = graph.ArcDelta

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewDigraph returns an empty directed graph on n vertices.
func NewDigraph(n int) *Digraph { return graph.NewDigraph(n) }

// Network is the synchronous broadcast-round ledger: it counts rounds,
// messages and bits, and delivers nothing.
type Network = sim.Network

// NewBCCNetwork returns a round ledger on n vertices with the standard
// Θ(log n) bandwidth. It counts Broadcast Congested Clique rounds, and
// also the Broadcast CONGEST rounds of the sparsifier (Theorem 1.2): in
// both models a round lets every vertex broadcast one B-bit message, and
// the models differ only in who receives it, which the ledger does not
// track.
func NewBCCNetwork(n int) (*Network, error) {
	return sim.NewNetwork(n)
}

// checkNetwork rejects a WithNetwork ledger whose vertex count is not the
// graph's n: an all-vertex phase charges one message per ledger vertex,
// and a broadcast by a vertex the ledger lacks has no sender to charge.
func checkNetwork(net *Network, n int) error {
	if net != nil && net.N() != n {
		return fmt.Errorf("bcclap: WithNetwork ledger has %d vertices, the graph %d", net.N(), n)
	}
	return nil
}

// SparsifyParams re-exports the sparsifier parameters (bundle size t,
// stretch parameter k, iteration count).
type SparsifyParams = sparsify.Params

// PaperSparsifyParams returns the constants of Algorithm 5 verbatim
// (t = 400·log²n/ε² — astronomically conservative; see EXPERIMENTS.md).
func PaperSparsifyParams(n, m int, eps float64) SparsifyParams {
	return sparsify.PaperParams(n, m, eps)
}

// PracticalSparsifyParams keeps the paper's parameter shapes with a
// constant that compresses at experiment scale.
func PracticalSparsifyParams(n, m int, eps float64) SparsifyParams {
	return sparsify.PracticalParams(n, m, eps)
}

// SparsifyResult is a computed spectral sparsifier.
type SparsifyResult struct {
	// H is the reweighted sparsifier.
	H *Graph
	// KeptEdges maps H's edges to indices in the input graph.
	KeptEdges []int
	// MaxOutDegree is the orientation bound of Theorem 1.2.
	MaxOutDegree int
	// Rounds is the simulated round cost (0 without Net).
	Rounds int
}

// SparsifyGraph computes a spectral sparsifier of g with the paper's
// ad-hoc sampling algorithm (Algorithm 5 / Theorem 1.2). It accepts the
// session option set: WithSeed, WithNetwork and WithSparsifyParams apply.
func SparsifyGraph(g *Graph, eps float64, opts ...Option) (*SparsifyResult, error) {
	cfg := newConfig(opts)
	if g.N() == 0 {
		return nil, fmt.Errorf("bcclap: empty graph")
	}
	if eps <= 0 {
		return nil, fmt.Errorf("bcclap: eps must be positive, got %g", eps)
	}
	if err := checkNetwork(cfg.net, g.N()); err != nil {
		return nil, err
	}
	par := cfg.sparsifyParams
	if par.K == 0 {
		par = sparsify.PracticalParams(g.N(), g.M(), eps)
	}
	res := sparsify.Adhoc(g, par, seededRand(cfg.seed+1), cfg.net)
	return &SparsifyResult{
		H:            res.H,
		KeptEdges:    res.KeptEdges,
		MaxOutDegree: res.MaxOutDegree(),
		Rounds:       res.Rounds,
	}, nil
}

// SparsifierQuality estimates the spectral band (lo, hi) with
// lo·L_H ≼ L_G ≼ hi·L_H over probed directions.
func SparsifierQuality(g, h *Graph, seed int64) (lo, hi float64) {
	return sparsify.Quality(g, h, 6, rand.New(rand.NewSource(seed+7)))
}

// LaplacianSolver answers systems L_G x = b after a one-time sparsifier
// preprocessing (Theorem 1.3). Construct with NewLaplacianSession and
// query with SolveCtx.
type LaplacianSolver struct {
	inner *lapsolver.Solver
}

// PreprocessRounds returns the rounds consumed by preprocessing.
func (s *LaplacianSolver) PreprocessRounds() int { return s.inner.PreprocessRounds }

// Sparsifier returns the sparsifier used for preconditioning.
func (s *LaplacianSolver) Sparsifier() *Graph { return s.inner.Sparsifier() }

// LPProblem is the linear program min cᵀx s.t. Aᵀx = b, l ≤ x ≤ u.
type LPProblem = lp.Problem

// LPSolution is the solver output.
type LPSolution = lp.Solution

// FlowBackends returns the names of all registered AᵀDA solve backends
// accepted by WithBackend.
func FlowBackends() []string { return lp.Backends() }

// FlowResult is an exact minimum-cost maximum flow.
type FlowResult struct {
	// Value is the maximum flow value and Cost its minimum cost.
	Value, Cost int64
	// Flows gives the integral flow per arc (indexed like d.Arcs()).
	Flows []int64
	// Stats is the unified per-solve observability record: path steps
	// (the Õ(√n) of Theorem 1.1), simulated rounds, wall time, reuse flags.
	Stats Stats
}

// MinCostMaxFlowBaseline runs the combinatorial successive-shortest-paths
// baseline (exact, centralized) used by the experiments for verification.
func MinCostMaxFlowBaseline(d *Digraph, s, t int) (value, cost int64, flows []int64, err error) {
	return flow.MinCostMaxFlowSSP(d, s, t)
}

// MaxFlow computes a maximum s-t flow with Dinic's algorithm.
func MaxFlow(d *Digraph, s, t int) (int64, []int64, error) {
	return flow.MaxFlow(d, s, t)
}

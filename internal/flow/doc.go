// Package flow implements minimum-cost maximum-flow (Section 5 of the
// paper, Theorem 1.1):
//
//   - the paper's pipeline: the auxiliary LP with slack variables y, z and
//     flow variable F, Daitch–Spielman cost perturbation for uniqueness,
//     the Lee–Sidford solver with (AᵀDA)-solves routed through a pluggable
//     backend (dense factorization, or the csr-pcg backend's matrix-free
//     CG preconditioned by a spanning forest of the network; an unnamed
//     backend is lp.DefaultBackend, dense, on every network),
//     and rounding back to an exact integral flow;
//   - classic combinatorial baselines (Dinic's max-flow and successive
//     shortest paths with potentials) that the experiments compare
//     against; and
//   - an exactness certificate (no augmenting path + no negative residual
//     cycle) used by the retry loop, by every phase-2 path step (the
//     first step whose rounding certifies ends the attempt) and by the
//     tests. The certificate is a local check and charges nothing to the
//     BCC round ledger, per step or at the end.
//
// The serving unit is Solver, a session over one digraph, and its one
// entry point Solve(ctx, q, warm): each queried terminal pair lazily
// builds — then caches — the Section 5 LP formulation, its CSR constraint
// matrix, the backend workspaces and the last certified solution (the
// warm-start state a warm query re-centers instead of re-running path
// following).
//
// Invariants:
//
//   - Determinism: every query draws a fresh perturbation stream from
//     Options.Seed, so a cold query is bit-identical to the same query on
//     a fresh Solver and independent of the order in which *other*
//     terminal pairs are queried. Only the per-pair solve sequence
//     matters (warm starts), which is what internal/pool's pair-pinned
//     routing preserves.
//   - Exactness: every returned flow passed CertifyOptimal — warm starts
//     and perturbation shortcuts are certificate-gated, never trusted.
//   - Confinement: a Solver's Solve and ApplyArcDeltas are
//     single-goroutine (the cached workspaces make the hot path
//     allocation-free); only the read-only Validate may be called
//     concurrently. Concurrency lives one layer up, in internal/pool,
//     which gives each worker its own Solver.
//   - Cancellation: the solve context is polled once per retry attempt,
//     per path-following iteration, and every 32 inner CG/Chebyshev
//     iterations, so cancellation aborts within one outer iteration
//     without slowing the allocation-free kernels.
package flow

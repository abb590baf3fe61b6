// Package lp implements the linear program solver of Section 4 of the
// paper (Theorem 1.4): an interior-point method following the Lee–Sidford
// weighted central path, with regularized Lewis weights (Algorithms 7–8),
// inexact centering steps (Algorithm 11), mixed-norm-ball projections
// (Lemma 4.10) and the two-phase path-following driver (Algorithms 9–10).
//
// The only entry point is Session (NewSession), which binds one Problem
// to a linear-solve backend and shared IPM scratch: Solve runs the full
// two-phase path following, Polish re-centers a prior certified iterate
// at t₂ (the warm-start shortcut warm flow queries use; its output is only
// as good as the caller's certificate, by design). A and the backend are
// bound at NewSession; B, C, L and U are read at every Solve/Polish, so
// one session serves a problem whose costs and bounds are rewritten in
// place between calls (the flow layer's perturbations and arc patches).
//
// The per-step normal equations (AᵀDA)x = y go through a pluggable backend
// registry ("dense", "csr-cg", "csr-pcg"; ResolveBackend, the one place
// an empty name becomes DefaultBackend, and Backends) shared with the flow
// layer, so the same IPM scales from the exact dense reference to
// matrix-free CG that never materializes AᵀDA. The csr-pcg backend adds a combinatorial
// preconditioner on top of the matrix-free path: a spanning-forest
// incomplete Cholesky whose support is extracted once per session from the
// constraint matrix with the paper's own spanner/sparsifier machinery and
// only numerically refreshed when the IPM reweights D (precond.go); its
// build/refresh counters surface in Solution.PrecondBuilds/Refreshes.
// Lemma 5.1's Gremban reduction is no backend: on [y; −y] its CG is
// csr-cg's Jacobi CG on doubled vectors, so lapsolver.SDDSolver measures
// it on its own (e10).
//
// Invariants:
//
//   - Confinement: a Session is single-goroutine — its backend workspaces
//     and centering scratch are reused across solves, which is what makes
//     the hot path allocation-free after the first solve. Concurrent
//     serving wraps one Session per worker (internal/pool), never a lock
//     around one Session.
//   - Determinism: a solve on a reused session is bit-identical to the
//     same solve on a fresh one — every scratch buffer is fully
//     overwritten before it is read. There is no randomness in lp; the
//     csr-pcg backend's subgraph extraction uses the fixed pcgSeed.
//   - Cancellation: the path-following loop checks its context every
//     iteration and the inner CG every 32 iterations; an aborted solve
//     returns an error satisfying errors.Is(err, ctx.Err()).
//
// Numerical notes. The paper's constants (R, α, t₁, bundle sizes …) are
// chosen for the w.h.p. proofs and are astronomically conservative — with
// them verbatim, a 10-variable LP would take ~10⁹ iterations. This
// implementation keeps every algorithmic *shape* (α ∝ 1/√n path steps,
// barrier + Lewis-weight machinery, projections) and fixes the
// aggressiveness in constants next to Params (α = 0.4/√n, 12 final
// centerings; Lewis weights with clamp band 0.9, 8 iterations per
// centering, weight floor 1e-10 and at most 400 homotopy steps), so the
// experiments can measure the √n iteration scaling of Theorem 1.4
// while still converging in float64. The work per path step is the paper's:
// Algorithm 10's one CenteringInexact per t-step, whose weight update is
// scaled by the centrality measure δ; exactness rests on the flow
// pipeline's rounding certificate, not on driving δ below a threshold.
// That certificate is also why Params.Stop exists: the flow pipeline
// rounds and certifies after every phase-2 step and ends the solve at the
// first success, so Theorem 1.4's Õ(√n·log(U/ε)) step count is a ceiling
// on a solve, not its length. Stop is the caller's computation and is
// not charged to the round ledger (Params.Net).
//
// Leverage scores are always exact, a deliberate departure from the
// paper: jl.ExactLeverage, built once per Session, makes n Gram solves
// (one per column of A) plus an O(nnz) pass over A's columns, where the
// paper's Lewis weights take Algorithm 6's Johnson–Lindenstrauss sketch
// of k = Θ(log(m)/η²) solves. The sketch makes fewer solves only when
// n > k, and at the η = 0.5 this package used to sketch with,
// k = 256·ln(m+2) ≥ 281; no test, experiment or benchmark solves an LP
// that large. Past that crossover a solve makes n/k times the sketch's
// Gram solves per Lewis iteration: about 1.3× for a flow network with
// 3,000 vertices and 3,000 arcs, whose LP has m = 8,999 rows
// (k ≈ 2,331) and n = 2,999 columns. In exchange lp keeps one leverage
// path and draws no random numbers. Algorithm 6 stays in package jl,
// where experiment e6 measures it against the exact scores.
//
// Deviations are local and documented at the point they occur.
package lp

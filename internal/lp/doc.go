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
// Each centering's projection solve (AᵀDA)x = y goes through a pluggable
// backend registry ("dense", "csr-pcg"; ResolveBackend, the one place an
// empty name becomes DefaultBackend, and Backends) shared with the flow
// layer: the exact dense reference, and csr-pcg's matrix-free CG that
// never materializes AᵀDA. csr-pcg is preconditioned by a spanning-forest
// incomplete Cholesky whose forest is picked once per session from the
// constraint matrix by one Kruskal pass over its column pairs by
// multiplicity (Vaidya's spanning-tree preconditioner) and only
// numerically refreshed, once per projection solve (precond.go); its
// build/refresh counters surface in Solution.PrecondBuilds/Refreshes.
// The paper's spanners and sparsifiers stay in internal/spanner and
// internal/sparsify, where the BCC experiments measure them; lp imports
// neither. Lemma 5.1's Gremban reduction is no backend: on [y; −y] its
// CG is a diagonally preconditioned CG on doubled vectors, so
// lapsolver.SDDSolver measures it on its own (e10).
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
//     csr-pcg backend's forest depends only on A.
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
// paper, and never go through the backend: every Lewis iteration of every
// session, whatever its backend, assembles AᵀD²A densely and factorizes
// it once (linalg.GramFactor), and jl.ExactLeverage answers its n column
// solves from that one factor plus an O(nnz) pass over A's columns. That
// is O(n³) work per Lewis iteration and an n×n buffer per session on
// every backend, where the paper's Lewis weights take Algorithm 6's
// Johnson–Lindenstrauss sketch of k = Θ(log(m)/η²) Laplacian solves; at
// the sizes this repository solves, one dense factor costs less than n
// inexact CG solves would. In exchange lp keeps one leverage path and
// draws no random numbers. Algorithm 6 stays in package jl, where
// experiment e6 measures it against the exact scores.
//
// Deviations are local and documented at the point they occur.
package lp

// Package lapsolver implements Laplacian and SDD solving in the Broadcast
// Congested Clique (Sections 2.3, 3.3 and Lemma 5.1 of the paper):
//
//   - Solver: the Theorem 1.3 pipeline — preprocess a (1±1/2) spectral
//     sparsifier H of G (which every vertex then knows), then answer each
//     (b, ε) instance with preconditioned Chebyshev iteration
//     (Theorem 2.3 / Corollary 2.4) in O(log(1/ε)) iterations, each
//     costing one distributed multiplication by L_G plus a free internal
//     solve in L_H.
//   - SDDSolver: the Gremban reduction from symmetric diagonally dominant
//     systems to a Laplacian system on twice as many vertices (Lemma 5.1),
//     which the paper uses for the min-cost-flow LP's AᵀDA solves (e10
//     measures it). One reusable value owns its workspace and solves the
//     reduction by Jacobi-preconditioned CG under linalg.InexactCGTo, the
//     policy the matrix-free AᵀDA backends share.
//
// Invariants:
//
//   - The sparsifier is built once per Solver; every SolveCtx reuses it
//     together with the iteration workspaces, so repeated right-hand
//     sides allocate nothing on the hot path.
//   - Determinism: preprocessing consumes only the Config.Rand stream;
//     the iteration itself is deterministic, so equal (b, ε) inputs
//     reproduce equal outputs bit for bit.
//   - Cancellation: SolveCtx polls its context between Chebyshev
//     iterations (every 32 inner iterations in the safeguard CG), so a
//     solve aborts within one iteration of cancellation.
package lapsolver

// Package jl implements the Johnson–Lindenstrauss machinery of Section
// 4.1 of the paper: the Kane–Nelson sparse sketch built from
// O(log(1/δ)·log m) shared random bits. A leader broadcasts a short seed,
// and every vertex expands it *deterministically* into the same sketch
// matrix via k-wise independent polynomial hash functions. That short
// seed is what the Broadcast Congested Clique needs: a dense sketch with
// an independent coin per entry would need Θ(k·m) random bits, which no
// vertex can share in few rounds.
//
// On top of the sketches, the package provides approximate leverage scores
// (Algorithm 6, Lemma 4.5): σ(M) = diag(M(MᵀM)⁻¹Mᵀ) approximated by k
// regression solves, which the paper's Lewis-weight updates consume.
// The exact computation (ExactLeverage) costs one Gram solve per column
// of the m×n matrix M = diag(d)·A (σᵢ = Σⱼ (M·(MᵀM)⁻¹)ᵢⱼ·Mᵢⱼ) plus one
// O(nnz) pass over A's columns: n solves against the sketch's k. The LP
// solver uses ExactLeverage alone and answers its n solves from one dense
// factorization of MᵀM per call (linalg.GramFactor; see package lp), on
// every AᵀDA backend; Algorithm 6 is measured against it by experiment
// e6.
//
// Invariants:
//
//   - Shared-seed determinism is the point: expanding the same broadcast
//     seed on every vertex yields the same sketch, so a sketch never needs
//     to be communicated — only its seed.
//   - Leverage scores never form M: they take A in CSR form and the row
//     scaling d, and reach (MᵀM)⁻¹ only through a GramSolver.
package jl

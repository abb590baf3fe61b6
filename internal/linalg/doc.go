// Package linalg provides the numerical linear-algebra substrate used by
// the Laplacian-paradigm pipeline: dense and CSR sparse matrices, graph
// Laplacians, the LinOp operator layer (matrices, closures, edge-list
// Laplacians and the ones-projected P·L·P, applied without materializing
// products; AᵀDA is one fused CSR pass, GramMulVecTo, not a composition
// of operators), conjugate-gradient and preconditioned
// Chebyshev solvers, the spanning-forest incomplete Cholesky
// preconditioner of precond.go (its symbolic structure is built once and
// numerically refreshed per reweight; on an edgeless forest it is
// Jacobi), and
// PencilBounds, which checks a spectral sparsifier against its graph.
//
// Everything is float64 and stdlib-only. Vectors are plain []float64 so
// they compose with the rest of the codebase without wrapper types.
//
// Invariants:
//
//   - One operator interface: every solver takes a LinOp, and matrices
//     and closures (FuncOp) implement it. CGLaplacian
//     and the Gremban SDD solve share one projected-Laplacian operator,
//     ProjectedOp.
//   - One inexact-solve policy: InexactCGTo is the only place that fixes
//     the CG tolerance (1e-10) and budget (40·n+4000) of the
//     interior-point method's matrix-free AᵀDA solves and of lapsolver's
//     SDD solve; a spent budget is ErrNoConvergence, never a silently
//     accepted iterate. Inexact solves are also where the IPM iterates'
//     drift off Aᵀx = b comes from, so the rule lives in one function
//     that a stricter stopping rule can replace.
//   - Allocation-free kernels: the *To solver variants (CGTo,
//     PreconditionedChebyshevTo, MulVecTo) write into caller-owned
//     buffers and draw scratch from a Workspace arena, so a warmed-up
//     solve allocates nothing — the property the session and pool layers
//     are built around (one workspace per session, never shared).
//   - Serial kernels: the package starts no goroutine, and the CSR
//     product sums each row in column order, so every product and solver
//     iterate is the same bit for bit on every host. The flow LPs solved
//     here have at most tens of thousands of nonzeros, too few for a
//     product sharded across goroutines to pay for its fan-out.
//   - Cancellation: the iterative solvers poll their context every 32
//     iterations — frequent enough to abort within one outer
//     path-following step, rare enough to keep the kernels branch-lean.
package linalg

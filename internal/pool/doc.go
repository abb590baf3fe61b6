// Package pool provides the concurrent serving layer over the
// single-goroutine solver sessions of internal/flow: a thread-safe pool
// of worker sessions that fans batches out with bounded
// concurrency and drains gracefully under a context.
//
// The paper (Theorem 1.1) gives one solver per network; this package is
// what turns that into a service. The design constraint comes from the
// session layer's performance contract: the interior-point hot paths are
// allocation-free because each session reuses its backend workspaces and
// centering scratch across queries, which makes a session inherently
// single-goroutine. The pool therefore never shares a session — it
// partitions the terminal-pair space instead:
//
//   - hash(s, t) modulo the worker count pins the pair to one worker;
//   - each worker goroutine exclusively owns one Session (its own LP
//     formulations, backend workspaces, scratch and warm-start cache), so
//     the solve path takes no locks and the -race detector has nothing to
//     find;
//   - per-pair execution order equals submission order, which preserves
//     the warm-start semantics of warm Solve calls made in the same order
//     on one session — pooled batches return bit-identical certified
//     results.
//
// Invariants:
//
//   - Determinism: routing uses a fixed splitmix64 finalizer (no per-run
//     hash seeding), and every worker session is constructed with the same
//     options, so a replayed query stream produces bit-identical results
//     at any worker count, matching the sequential session path.
//   - Confinement: Session.Solve and Session.ApplyArcDeltas are only ever
//     invoked from the owning worker goroutine; only Validate (read-only)
//     crosses workers.
//   - Cancellation: a solve runs under the submitter's context and is
//     additionally canceled by an aborting shutdown; the solver polls its
//     context every few iterations, so Close interrupts within one
//     path-following iteration.
//
// Shutdown is two-speed: Drain(ctx) stops intake and lets queued work
// finish (aborting if ctx expires), Close aborts immediately. Both return
// only after every worker goroutine has exited.
package pool

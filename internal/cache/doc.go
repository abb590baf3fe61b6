// Package cache is the certified-result cache behind the multi-tenant
// service layer: a concurrency-safe LRU keyed by (network version,
// source, sink).
//
// The flow pipeline's answers are exact and deterministic — a certified
// (value, cost, flows) triple for a terminal pair is a pure function of
// the network and the session seed — so the service layer may serve a
// previously certified result without re-running the interior-point
// method, provided the network has not changed since. The Key therefore
// carries the owning handle's monotonic version: swapping a network bumps
// the version, which makes every stale entry unreachable even before the
// owner calls Flush.
//
// Invariants:
//
//   - Concurrency-safe: Get/Put/Flush/Stats may be called from any number
//     of goroutines; one mutex serializes them. Each tenant owns its own
//     cache, so the lock is shared only by that tenant's requests.
//   - Bounded: the entry budget is fixed at construction and is the exact
//     bound — the cache holds up to that many entries and evicts its
//     least-recently-used entry on overflow. A budget of 0 constructs a
//     nil cache on which every operation is a cheap no-op, so callers need
//     no disabled-path branching.
//   - Observable: Stats snapshots hits, misses, evictions (budget
//     pressure) and invalidations (Flush) as monotonic counters, plus the
//     current entry count against the budget.
//
// The cache stores values by reference and never copies them; the owner
// decides whether to clone on insert or lookup (the service layer clones
// the flow vector on every hit so callers cannot corrupt cached results).
package cache

package bcclap

import "bcclap/internal/store"

// Functional options shared by every session constructor (NewFlowSolver,
// NewLPSolver, NewLaplacianSession, SparsifyGraph). Options that do not
// apply to a given entry point are ignored, so one option slice can
// configure a whole pipeline.

// SyncPolicy selects when the durable tenant store fsyncs its write-ahead
// log (WithStoreSync).
type SyncPolicy = store.SyncPolicy

const (
	// SyncAlways fsyncs after every appended record before the mutation
	// takes effect: an acknowledged Register/Swap/PatchArcs/Deregister
	// survives any crash. The default.
	SyncAlways = store.SyncAlways
	// SyncNever leaves flushing to the OS page cache: much faster appends,
	// but records acknowledged since the last snapshot or sync may be lost
	// on power failure (never corrupted — recovery truncates torn tails).
	SyncNever = store.SyncNever
)

// Event is a progress notification delivered to WithProgress callbacks.
type Event struct {
	// Stage identifies the pipeline stage: "attempt" (a fresh flow
	// perturbation attempt starts), "path-step" (one interior-point
	// t-update completed).
	Stage string
	// Attempt is the flow perturbation attempt (Stage "attempt").
	Attempt int
	// Phase is the path-following phase for Stage "path-step": 1 =
	// artificial cost, 2 = true cost, 3 = warm-start polish.
	Phase int
	// Step is the cumulative path-step count (Stage "path-step").
	Step int
	// T is the current path parameter (Stage "path-step").
	T float64
}

// Option configures a session constructor.
type Option func(*config)

// config is the resolved option set. A Service resolves its defaults
// once and every tenant keeps its own resolved copy, so the value a
// Register or Swap built is the one the WAL persists and replay restores.
type config struct {
	backend        string
	seed           int64
	net            *Network
	poolSize       int
	progress       func(Event)
	sparsifyParams SparsifyParams
	cacheSize      int
	limits         Limits
	storeDir       string
	storeSync      SyncPolicy
	storeSnapEvery int
	telemetryOff   bool
}

// newConfig resolves opts over the defaults (a DefaultCacheSize cache
// budget, everything else zero).
func newConfig(opts []Option) config {
	cfg := config{cacheSize: DefaultCacheSize}
	cfg.apply(opts)
	return cfg
}

// apply layers opts over c; later options win.
func (c *config) apply(opts []Option) {
	for _, o := range opts {
		if o != nil {
			o(c)
		}
	}
}

// WithBackend selects the AᵀDA linear-solve strategy by registry name
// ("dense", "csr-pcg", …; FlowBackends lists them; the retired "csr-cg"
// and "gremban" fail with ErrBackendUnknown).
// Without it a NewFlowSolver runs the exact dense reference on every
// graph, and NewLPSolver runs prob.Backend (then "dense"); WithBackend
// there overrides prob.Backend for the session without writing prob. An
// unknown name makes the session constructor fail fast with
// ErrBackendUnknown.
// Applies to NewFlowSolver and NewLPSolver.
func WithBackend(name string) Option {
	return func(c *config) { c.backend = name }
}

// WithSeed fixes the seed driving all randomness (flow cost
// perturbations, sparsifier sampling). Sessions derive per-query streams
// from it deterministically: the same seed replays bit-identical runs.
// Applies to NewFlowSolver, NewLaplacianSession and SparsifyGraph;
// NewLPSolver draws no random numbers and ignores it.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithNetwork attaches a round-accounting simulator network; Stats.Rounds
// then reports the rounds consumed by each solve. The network must have
// the graph's vertex count, else construction fails. The simulator is
// single-stream, so a FlowSolver accepts it only with one worker:
// combining it with WithPoolSize above 1 fails at construction, and
// Service registrations reject it outright. Applies to every entry point.
func WithNetwork(net *Network) Option {
	return func(c *config) { c.net = net }
}

// WithPoolSize sets how many worker sessions back a FlowSolver (default
// and floor 1). SolveBatch fans its queries out across the workers
// (bounded by pool-size concurrent solves), and queries are routed by
// terminal pair so that each pair always runs on the same worker session
// — which keeps results bit-identical at every pool size, warm-start
// caches included. The worker count is exactly max(n, 1), and
// construction cost scales with it (each worker owns independent backend
// workspaces); PoolSize reports the effective count. More than one worker
// rejects WithNetwork (the round simulator is single-stream). Applies to
// NewFlowSolver and NewService/Register/Swap.
func WithPoolSize(n int) Option {
	return func(c *config) { c.poolSize = n }
}

// WithProgress registers a callback receiving per-attempt and per-path-step
// Events. The callback runs synchronously on the worker goroutine running
// the solve (FlowSolver) or on the caller's goroutine (LPSolver): keep it
// fast, and do not call back into the session. Canceling the solve's
// context from inside the callback is the supported way to abort on a
// progress condition. On a FlowSolver with several workers
// (WithPoolSize > 1) the callback is invoked concurrently from every
// worker goroutine — it must be safe for concurrent use. Applies to
// NewFlowSolver and NewLPSolver.
func WithProgress(fn func(Event)) Option {
	return func(c *config) { c.progress = fn }
}

// WithCacheSize bounds the certified-result cache a Service places in
// front of each NetworkHandle to n entries (per network). 0 disables
// caching for the network; without this option the service default
// applies (DefaultCacheSize, itself overridable by passing WithCacheSize
// to NewService). Cached answers are bit-identical to fresh solves —
// results are certified and deterministic, so the cache is a pure
// latency/throughput optimization; Stats.CacheHit and the hit/miss/
// eviction counters in NetworkStats and ServiceStats make it observable.
// Applies to NewService and Service.Register/Swap.
func WithCacheSize(n int) Option {
	return func(c *config) { c.cacheSize = n }
}

// WithRateLimit caps a network's sustained admission rate at qps
// queries per second with the given token-bucket burst (how many
// queries may be admitted back-to-back after idling; burst <= 0 means
// max(1, ⌈qps⌉)). A SolveBatch consumes one token per query. Saturated
// requests wait in the admission queue (WithQueueDepth) and are
// rejected with ErrOverloaded when it is full or their deadline would
// expire while queued. qps = 0 removes the rate limit; a negative qps
// fails registration with ErrBadLimits. Limits are journaled on a
// durable service and survive restarts; NetworkHandle.SetLimits changes
// them at runtime. Applies to NewService and Service.Register/Swap.
func WithRateLimit(qps float64, burst int) Option {
	return func(c *config) {
		c.limits.RatePerSec = qps
		c.limits.Burst = max(burst, 0)
	}
}

// WithMaxInFlight caps how many admitted requests a network may have
// running concurrently (a SolveBatch counts as one request; its
// internal fan-out is already bounded by the tenant's pool size).
// Excess requests queue per WithQueueDepth. n = 0 removes the cap;
// negative n fails registration with ErrBadLimits. Applies to
// NewService and Service.Register/Swap.
func WithMaxInFlight(n int) Option {
	return func(c *config) { c.limits.MaxInFlight = n }
}

// WithQueueDepth bounds the admission queue: how many requests may wait
// when the network is at its rate or in-flight limit (default
// admission.DefaultQueueDepth = 16 once any limit is active). n <= 0
// disables queueing, so saturated requests fail immediately with
// ErrOverloaded (Limits.QueueDepth -1). Irrelevant while no limit is
// configured. Applies to NewService and Service.Register/Swap.
func WithQueueDepth(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = -1
		}
		c.limits.QueueDepth = n
	}
}

// WithTelemetry enables or disables the service's metrics registry
// (default enabled). With telemetry off, Service.WriteMetrics fails and
// the solve path skips all metric recording — an escape hatch for
// embedders that scrape nothing and want the last nanoseconds of the
// cached hot path. Admission limits are enforced either way. Applies to
// NewService and OpenService.
func WithTelemetry(enabled bool) Option {
	return func(c *config) { c.telemetryOff = !enabled }
}

// WithSparsifyParams overrides the sparsifier parameters (bundle size,
// stretch, iterations). Applies to SparsifyGraph and NewLaplacianSession.
func WithSparsifyParams(par SparsifyParams) Option {
	return func(c *config) { c.sparsifyParams = par }
}

// WithStore makes a Service durable: tenant lifecycle mutations (Register,
// Swap, PatchArcs, Deregister) are appended to a write-ahead log under dir
// — durably, before they take effect — and periodically compacted into
// snapshots, so OpenService on the same directory rebuilds every network,
// version and resolved solver configuration without re-registration.
// Results after recovery are bit-identical to the pre-crash service's.
//
// The persisted per-tenant configuration is the resolved serializable
// subset: backend, seed, pool size, cache size and admission limits.
// Process-local options (WithProgress, WithNetwork, WithSparsifyParams)
// are not persisted and must be re-supplied per registration after a
// restart if needed. Applies to OpenService
// (NewService ignores it).
func WithStore(dir string) Option {
	return func(c *config) { c.storeDir = dir }
}

// WithStoreSync selects the WAL fsync policy of a WithStore service:
// SyncAlways (default, every acknowledged mutation survives a crash) or
// SyncNever (faster, bounded loss of the most recent mutations on power
// failure). Applies to OpenService.
func WithStoreSync(p SyncPolicy) Option {
	return func(c *config) { c.storeSync = p }
}

// WithSnapshotEvery sets how many WAL records accumulate before the store
// folds them into a compacted snapshot (default store.DefaultSnapshotEvery;
// negative disables automatic snapshots). Snapshots bound both recovery
// replay time and log growth. Applies to OpenService.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.storeSnapEvery = n }
}

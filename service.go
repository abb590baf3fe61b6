package bcclap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcclap/internal/admission"
	"bcclap/internal/cache"
	"bcclap/internal/flow"
	"bcclap/internal/graph"
	"bcclap/internal/store"
	"bcclap/internal/telemetry"
)

// DefaultCacheSize is the per-network certified-result cache budget a
// Service applies when neither NewService nor Register/Swap passed
// WithCacheSize. WithCacheSize(0) disables caching for a network.
const DefaultCacheSize = 1024

// CacheStats re-exports the certified-result cache counters (hits,
// misses, budget evictions, flush invalidations, current entries against
// the budget).
type CacheStats = cache.Stats

// StoreStats re-exports the durable-store counters (appends, snapshots,
// records replayed and bytes truncated at the last recovery).
type StoreStats = store.Stats

// Limits is the per-tenant QoS limit set enforced by each handle's
// admission gate: sustained rate (token bucket with a burst depth), an
// in-flight cap, and the bounded admission queue between them. The zero
// value means unlimited. Configure at Register/Swap with WithRateLimit,
// WithMaxInFlight and WithQueueDepth — note those options use serving-
// surface conventions (queue depth 0 disables queueing) while this
// struct keeps the gate's (QueueDepth 0 means the default, negative
// disables) — or change at runtime with NetworkHandle.SetLimits.
type Limits = admission.Limits

// AdmissionStats re-exports the per-tenant admission-gate counters
// (admitted/queued/rejected totals, live occupancy, cumulative queue
// wait and the EWMA service time backing Retry-After estimates).
type AdmissionStats = admission.Stats

// Service is the multi-tenant top of the API: one process managing many
// named, versioned flow networks over the session/pool machinery, the way
// a container daemon fronts many named objects with one lifecycle
// vocabulary. Register ingests a network under a name and returns its
// NetworkHandle; Get resolves a name; Swap atomically replaces a tenant's
// network (draining the old solver, bumping the handle's version) without
// disturbing queries on other tenants; Deregister retires one.
//
// Every handle wraps a FlowSolver — per-network WithBackend /
// WithPoolSize / WithSeed / WithCacheSize overrides layer over the
// service-level defaults given to NewService — and fronts it with
// an LRU of certified results keyed by (network, version, s, t).
// Since solves are exact and deterministic, cached answers are
// bit-identical to fresh ones, turning repeated production queries into
// O(1) lookups; the cache is invalidated whole-tenant on Swap and
// Deregister, and its hit/miss/eviction counters surface in NetworkStats
// and ServiceStats.
//
// A service built by OpenService with WithStore is additionally durable:
// every lifecycle mutation (Register, Swap, PatchArcs, Deregister) is
// appended to a write-ahead log before it takes effect, and a restarted
// process replays the log — so tenants, versions and configurations
// survive crashes and serve bit-identical results without
// re-registration.
//
// All Service and NetworkHandle methods are safe for concurrent use.
type Service struct {
	// defaults is the resolved NewService option set every Register
	// copies and layers its per-network options over.
	defaults config

	// log is the durable tenant store (nil on a NewService-built,
	// memory-only service). Records are appended before the mutation they
	// describe takes effect; appends for one tenant serialize under that
	// tenant's handle lock (Register under s.mu), so WAL order equals the
	// order mutations became visible.
	log *store.Log

	// tel is the recording half of the service's telemetry: the one
	// hot-path metric family plus the scrape-time machinery behind
	// WriteMetrics. Nil when WithTelemetry(false) was passed.
	tel *serviceTelemetry

	mu     sync.RWMutex
	nets   map[string]*NetworkHandle
	closed bool

	registered, deregistered, swaps, patches atomic.Int64
}

// NetworkStats describes one tenant: identity (name, monotonic version),
// network size, solver configuration and the pool/cache counters.
type NetworkStats struct {
	// Name and Version identify the tenant; Version starts at 1 and is
	// bumped by every successful Swap and PatchArcs.
	Name    string
	Version uint64
	// Patches counts successful PatchArcs calls over the tenant's lifetime
	// (persisted: it survives restarts of a durable service).
	Patches uint64
	// Vertices and Arcs size the currently served network.
	Vertices, Arcs int
	// Backend is the resolved AᵀDA backend name; PoolSize the worker-
	// session count behind the handle.
	Backend  string
	PoolSize int
	// Pool snapshots the solver pool counters, Cache the certified-result
	// cache counters, Admission the QoS gate (configured limits included).
	Pool      PoolStats
	Cache     CacheStats
	Admission AdmissionStats
}

// ServiceStats aggregates the whole service: tenant count, lifecycle
// counters and the per-tenant records (sorted by name), plus the cache
// counters summed across tenants.
type ServiceStats struct {
	// Networks is the number of currently registered tenants.
	Networks int
	// Registered, Deregistered, Swaps and Patches count lifecycle events
	// since NewService/OpenService (replayed tenants count as Registered).
	Registered, Deregistered, Swaps, Patches int64
	// Cache sums the per-tenant cache counters.
	Cache CacheStats
	// Store snapshots the durable-store counters; nil on a memory-only
	// service.
	Store *StoreStats
	// PerNetwork holds one record per live tenant, sorted by name.
	PerNetwork []NetworkStats
}

// NewService builds an empty service. opts become the service-level
// defaults that every Register and Swap layers its per-network options
// over (later options win), so a fleet-wide backend, seed, pool size or
// cache budget is stated once:
//
//	svc := bcclap.NewService(bcclap.WithBackend("csr-pcg"), bcclap.WithPoolSize(4))
//	h, err := svc.Register("prod-eu", d, bcclap.WithPoolSize(8)) // overrides pool only
//
// Every tenant's FlowSolver is safe for concurrent use and can be
// drained independently. WithNetwork is rejected by Register and Swap:
// the round simulator is single-stream, and a Swap briefly runs the old
// and new solvers side by side.
func NewService(opts ...Option) *Service {
	s := &Service{
		defaults: newConfig(opts),
		nets:     make(map[string]*NetworkHandle),
	}
	if !s.defaults.telemetryOff {
		s.tel = newServiceTelemetry()
	}
	return s
}

// OpenService builds a durable service: with WithStore(dir) among opts it
// opens (or creates) the write-ahead log under dir, replays the persisted
// tenant state — every network is rebuilt at its last version with its
// resolved solver configuration, ready to serve bit-identical results
// without re-registration — and then starts journaling new mutations.
// Without WithStore it degenerates to NewService. WithStoreSync and
// WithSnapshotEvery tune the store; the remaining opts are the usual
// service-level defaults for new registrations (replayed tenants keep
// their persisted configuration and ignore them).
//
// A directory may be open in at most one process at a time; Drain or
// Close releases it.
func OpenService(opts ...Option) (*Service, error) {
	s := NewService(opts...)
	cfg := s.defaults
	if cfg.storeDir == "" {
		return s, nil
	}
	lg, err := store.Open(cfg.storeDir, store.Options{
		Sync:          cfg.storeSync,
		SnapshotEvery: cfg.storeSnapEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("bcclap: open store: %w", err)
	}
	for _, ts := range lg.Tenants() {
		if err := s.replayTenant(ts); err != nil {
			lg.Close()
			s.Close()
			return nil, fmt.Errorf("bcclap: replay tenant %q: %w", ts.Name, err)
		}
	}
	// Attach only after replay: rebuilding a persisted tenant must not
	// journal a fresh register record.
	s.log = lg
	return s, nil
}

// tenantOpts is the persisted form of a tenant's resolved configuration:
// what a restarted process needs to rebuild the tenant bit-identically
// (process-local options are not persisted). A limits-only record uses
// just its Limits. Tol and Retries are written as 0 (fixed in the solver).
func tenantOpts(cfg config) store.TenantOpts {
	l := cfg.limits
	tl := store.TenantLimits{
		Rate:        l.RatePerSec,
		Burst:       l.Burst,
		MaxInFlight: l.MaxInFlight,
		RateSet:     true,
		InFlightSet: true,
		QueueSet:    l.QueueDepth != 0, // depth 0 with QueueSet: no queue
	}
	if l.QueueDepth > 0 {
		tl.QueueDepth = l.QueueDepth
	}
	return store.TenantOpts{
		Backend:      cfg.backend,
		Seed:         cfg.seed,
		Pool:         cfg.poolSize,
		CacheSize:    cfg.cacheSize,
		CacheSizeSet: true,
		Limits:       tl,
	}
}

// configOf is the inverse of tenantOpts. It does not layer over the
// current service defaults: the persisted values were resolved against
// the defaults of the original Register/Swap. Fields a record marks unset
// keep their defaults, and a shard count from versions that ran
// max(pool, shards) workers folds into the pool size. Tol and Retries, from
// versions that had those options, are ignored, and the retired "csr-cg"
// and "gremban" backends replay as "csr-pcg", the one matrix-free backend
// left (csr-cg was its CG with a diagonal preconditioner, gremban the same
// CG on a doubled system). An empty backend replays on the default,
// dense, whatever the network.
func configOf(o store.TenantOpts) config {
	cfg := config{
		backend:   o.Backend,
		seed:      o.Seed,
		poolSize:  max(o.Pool, o.Shards),
		cacheSize: DefaultCacheSize,
	}
	if cfg.backend == "csr-cg" || cfg.backend == "gremban" {
		cfg.backend = "csr-pcg"
	}
	if o.CacheSizeSet {
		cfg.cacheSize = o.CacheSize
	}
	l := o.Limits
	if l.RateSet {
		cfg.limits.RatePerSec, cfg.limits.Burst = l.Rate, l.Burst
	}
	if l.InFlightSet {
		cfg.limits.MaxInFlight = l.MaxInFlight
	}
	if l.QueueSet {
		cfg.limits.QueueDepth = -1
		if l.QueueDepth > 0 {
			cfg.limits.QueueDepth = l.QueueDepth
		}
	}
	return cfg
}

// replayTenant rebuilds one persisted tenant during OpenService (the log
// is not attached yet, so nothing is re-journaled).
func (s *Service) replayTenant(ts store.TenantState) error {
	d := NewDigraph(ts.N)
	for _, a := range ts.Arcs {
		if _, err := d.AddArc(a.From, a.To, a.Cap, a.Cost); err != nil {
			return err
		}
	}
	h, err := s.newHandle(ts.Name, d, configOf(ts.Opts))
	if err != nil {
		return err
	}
	h.version = ts.Version
	h.patches = ts.Patches
	s.mu.Lock()
	s.nets[ts.Name] = h
	s.mu.Unlock()
	s.registered.Add(1)
	return nil
}

// validName rejects names that cannot round-trip through the REST surface
// (path segments) or read back ambiguously in logs.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("bcclap: network name must be non-empty")
	}
	if len(name) > 128 {
		return fmt.Errorf("bcclap: network name longer than 128 bytes")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("bcclap: network name %q contains '/' or whitespace", name)
	}
	return nil
}

// newTenantSolver builds the FlowSolver for one tenant from its resolved
// configuration.
func newTenantSolver(d *Digraph, cfg config) (*FlowSolver, error) {
	// Validate limits before the (expensive) solver build: a bad
	// WithRateLimit/WithMaxInFlight fails fast and journals nothing.
	if err := cfg.limits.Validate(); err != nil {
		return nil, fmt.Errorf("bcclap: %w", err)
	}
	// The round simulator is single-stream and process-local: a Swap
	// drains the old solver while the new one serves, so two solvers
	// would share it. Tenants never take one, whatever their pool size.
	if cfg.net != nil {
		return nil, fmt.Errorf("bcclap: WithNetwork cannot be used with a Service tenant")
	}
	return newFlowSolver(d, cfg)
}

// newHandle builds a tenant at version 1 over d (which it takes
// ownership of) from its resolved configuration: solver, admission gate
// and an empty cache. Register and replay share it.
func (s *Service) newHandle(name string, d *Digraph, cfg config) (*NetworkHandle, error) {
	solver, err := newTenantSolver(d, cfg)
	if err != nil {
		return nil, err
	}
	gate, err := admission.NewGate(cfg.limits)
	if err != nil {
		solver.Close()
		return nil, err
	}
	h := &NetworkHandle{
		name:    name,
		svc:     s,
		cfg:     cfg,
		solver:  solver,
		d:       d,
		version: 1,
		cache:   cache.New[*FlowResult](cfg.cacheSize),
		gate:    gate,
	}
	h.lat.Store(s.latFor(name, solver.Backend()))
	return h, nil
}

// Register ingests d under name and returns its handle. The per-network
// opts layer over the NewService defaults; a taken name fails with
// ErrNetworkExists (swap a live network through its handle instead), and
// solver construction failures (empty digraph, unknown backend) surface
// unchanged. The handle starts at version 1 with an empty cache.
func (s *Service) Register(name string, d *Digraph, opts ...Option) (*NetworkHandle, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	cfg := s.defaults
	cfg.apply(opts)
	// The handle owns a private copy: PatchArcs mutates arc capacities and
	// costs in place, and the caller keeps using its digraph. Construct
	// outside the lock: solver construction does real work and must not
	// serialize tenants; the name reservation below re-checks.
	h, err := s.newHandle(name, d.Clone(), cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		h.solver.Close()
		return nil, fmt.Errorf("bcclap: service: %w", ErrSolverClosed)
	}
	if _, taken := s.nets[name]; taken {
		s.mu.Unlock()
		h.solver.Close()
		return nil, fmt.Errorf("bcclap: network %q: %w", name, ErrNetworkExists)
	}
	// Journal-before-effect: the registration is durable before the name
	// becomes visible; a failed append registers nothing.
	if s.log != nil {
		rec := store.Record{
			Type: store.RecRegister, Name: name, Version: 1,
			Opts: tenantOpts(cfg), N: h.d.N(), Arcs: h.d.Arcs(),
		}
		if err := s.log.Append(rec); err != nil {
			s.mu.Unlock()
			h.solver.Close()
			return nil, fmt.Errorf("bcclap: register %q: %w", name, err)
		}
	}
	s.nets[name] = h
	s.mu.Unlock()
	s.registered.Add(1)
	return h, nil
}

// Get resolves a registered network by name (ErrNetworkUnknown otherwise).
func (s *Service) Get(name string) (*NetworkHandle, error) {
	s.mu.RLock()
	h, ok := s.nets[name]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("bcclap: service: %w", ErrSolverClosed)
	}
	if !ok {
		return nil, fmt.Errorf("bcclap: network %q: %w", name, ErrNetworkUnknown)
	}
	return h, nil
}

// Deregister retires the named network: the retirement is journaled (on a
// durable service), the name is freed, the tenant's cache is invalidated,
// and the handle's solver is drained — in-flight queries finish, later
// ones fail with ErrSolverClosed. Other tenants are untouched. Unknown
// names fail with ErrNetworkUnknown.
func (s *Service) Deregister(name string) error {
	s.mu.RLock()
	h, ok := s.nets[name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("bcclap: network %q: %w", name, ErrNetworkUnknown)
	}
	// The deregister record is appended under the handle lock, before the
	// handle closes: per-tenant appends (swap, patch, deregister) all hold
	// h.mu, so WAL order equals the order mutations became visible, and a
	// failed append leaves the tenant serving.
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("bcclap: network %q: %w", name, ErrNetworkUnknown)
	}
	if s.log != nil {
		rec := store.Record{Type: store.RecDeregister, Name: name, Version: h.version}
		if err := s.log.Append(rec); err != nil {
			h.mu.Unlock()
			return fmt.Errorf("bcclap: deregister %q: %w", name, err)
		}
	}
	h.closed = true
	solver := h.solver
	h.cache.Flush()
	h.mu.Unlock()
	s.mu.Lock()
	if s.nets[name] == h {
		delete(s.nets, name)
	}
	s.mu.Unlock()
	s.deregistered.Add(1)
	return solver.Drain(context.Background())
}

// Names lists the registered networks, sorted.
func (s *Service) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.nets))
	for name := range s.nets {
		names = append(names, name)
	}
	s.mu.RUnlock()
	slices.Sort(names)
	return names
}

// ServiceStats snapshots the whole service: lifecycle counters plus one
// NetworkStats per live tenant (sorted by name) and the cache counters
// summed across tenants.
func (s *Service) ServiceStats() ServiceStats {
	s.mu.RLock()
	handles := make([]*NetworkHandle, 0, len(s.nets))
	for _, h := range s.nets {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	st := ServiceStats{
		Networks:     len(handles),
		Registered:   s.registered.Load(),
		Deregistered: s.deregistered.Load(),
		Swaps:        s.swaps.Load(),
		Patches:      s.patches.Load(),
	}
	if s.log != nil {
		ls := s.log.Stats()
		st.Store = &ls
	}
	for _, h := range handles {
		ns := h.Stats()
		st.Cache = st.Cache.Add(ns.Cache)
		st.PerNetwork = append(st.PerNetwork, ns)
	}
	slices.SortFunc(st.PerNetwork, func(a, b NetworkStats) int {
		return strings.Compare(a.Name, b.Name)
	})
	return st
}

// Drain gracefully shuts the whole service down: intake stops (Register,
// Get and every handle's Solve fail with ErrSolverClosed), every tenant's
// in-flight queries finish within ctx's budget, and the first drain error
// (if any) is returned after all tenants have stopped. On a durable
// service the store is compacted and released afterwards — shutting down
// is not deregistration, so the tenants stay journaled and OpenService on
// the same directory brings them all back.
func (s *Service) Drain(ctx context.Context) error {
	handles := s.takeAll()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A drain cut short by ctx has already aborted the solver's
			// remaining work.
			if err := h.shut().Drain(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("bcclap: drain network %q: %w", h.name, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Close the log only after every tenant has stopped mutating: appends
	// hold the handle locks shut takes above, so none can arrive after
	// this point.
	if s.log != nil {
		if err := s.log.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bcclap: close store: %w", err)
		}
	}
	return firstErr
}

// Close shuts the service down immediately: every tenant's queued queries
// fail and running solves are canceled within one solver iteration, and
// on a durable service the store is released (its journaled tenants
// survive for the next OpenService). Safe to call after Drain, and more
// than once.
func (s *Service) Close() {
	for _, h := range s.takeAll() {
		h.shut().Close()
	}
	if s.log != nil {
		s.log.Close()
	}
}

// takeAll marks the service closed and empties the registry, returning
// the tenants that still need shutting down.
func (s *Service) takeAll() []*NetworkHandle {
	s.mu.Lock()
	s.closed = true
	handles := make([]*NetworkHandle, 0, len(s.nets))
	for _, h := range s.nets {
		handles = append(handles, h)
	}
	s.nets = make(map[string]*NetworkHandle)
	s.mu.Unlock()
	return handles
}

// NetworkHandle is one tenant of a Service: a named, versioned network
// behind a FlowSolver and a certified-result cache. Handles are
// safe for concurrent use; they stay valid across Swap (queries in flight
// during a swap finish against the network they started on) and fail with
// ErrSolverClosed once their network is deregistered.
type NetworkHandle struct {
	name string
	svc  *Service

	// mutating serializes tenant mutations (Swap, PatchArcs, each of which
	// does real work outside h.mu): a second mutation arriving while one is
	// in flight fails fast with ErrNetworkBusy instead of queueing.
	mutating atomic.Bool

	// gate is the tenant's QoS admission controller; immutable for the
	// handle's lifetime (SetLimits mutates it in place, never replaces
	// it), so the solve path reads it without holding h.mu.
	gate *admission.Gate

	// tick drives the 1-in-64 sampling of cache-hit latencies; lat holds
	// the hot-path histogram children for the current backend (nil with
	// telemetry disabled), swapped atomically when Swap changes backends.
	tick atomic.Uint64
	lat  atomic.Pointer[latChildren]

	mu      sync.RWMutex
	cfg     config // resolved service defaults + register/swap overrides
	solver  *FlowSolver
	d       *Digraph // handle-private clone; PatchArcs mutates it in place
	version uint64
	patches uint64
	cache   *cache.Cache[*FlowResult]
	closed  bool
}

// Name returns the tenant's registered name.
func (h *NetworkHandle) Name() string { return h.name }

// Version returns the monotonic network version: 1 at Register, bumped by
// every successful Swap and PatchArcs. Cached results are keyed by it; a
// swap makes every old entry unreachable, while a patch migrates the
// still-valid entries to the new version (see PatchArcs).
func (h *NetworkHandle) Version() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.version
}

// Backend returns the resolved AᵀDA backend name of the current solver.
func (h *NetworkHandle) Backend() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.solver.Backend()
}

// snapshot pins the serving state for one query: the solver, the version
// its answers certify against, and the cache.
func (h *NetworkHandle) snapshot() (*FlowSolver, uint64, *cache.Cache[*FlowResult], error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return nil, 0, nil, fmt.Errorf("bcclap: network %q: %w", h.name, ErrSolverClosed)
	}
	return h.solver, h.version, h.cache, nil
}

// cloneResult detaches a FlowResult from the cache (or the cache from the
// caller): same value, cost and bit-identical flow vector, with the
// CacheHit flag set as requested.
func cloneResult(res *FlowResult, hit bool) *FlowResult {
	out := *res
	out.Flows = slices.Clone(res.Flows)
	out.Stats.CacheHit = hit
	// Trace IDs are request-scoped, never cached: the entry going into
	// (or coming out of) the cache must not carry the trace of whichever
	// request happened to touch it first.
	out.Stats.TraceID = ""
	return &out
}

// store inserts a freshly certified result, unless the network was
// swapped or retired while the solve ran (the version re-check and the
// Put are under one read lock, so a concurrent Swap — which flushes under
// the write lock — can never leave a stale entry behind).
func (h *NetworkHandle) store(ver uint64, key cache.Key, res *FlowResult) {
	h.mu.RLock()
	if !h.closed && h.version == ver {
		h.cache.Put(key, cloneResult(res, false))
	}
	h.mu.RUnlock()
}

// swappedSince reports whether an ErrSolverClosed from a pinned solver
// means the query merely lost a race with Swap — the snapshot retired
// between pinning and submission, and the tenant is still serving on a
// newer version — rather than the tenant itself being shut down.
func (h *NetworkHandle) swappedSince(ver uint64) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return !h.closed && h.version != ver
}

// Solve answers one (s, t) query: a cache hit returns the previously
// certified result in O(1) — bit-identical in value, cost and flow vector
// to a fresh solve, with Stats.CacheHit set — and a miss solves on the
// tenant's pool with warm-start semantics (a pair the pool has already
// answered re-centers the previous certified solution, which is what
// makes resolves after PatchArcs cheap) and populates the cache. A query
// that loses the race with a concurrent Swap transparently retries on the
// new network, so tenants never observe spurious shutdown errors from
// their own swaps. Every query first passes the tenant's admission gate
// (cache hits included — QoS limits bound offered load, not solver
// work); a saturated gate queues or rejects with ErrOverloaded per the
// configured Limits. Sentinels match FlowSolver.Solve (ErrBadQuery, ctx
// errors), plus ErrSolverClosed after Deregister.
func (h *NetworkHandle) Solve(ctx context.Context, s, t int) (*FlowResult, error) {
	rel, err := h.gate.Admit(ctx)
	if err != nil {
		return nil, fmt.Errorf("bcclap: network %q: %w", h.name, err)
	}
	defer rel()
	// Cache-hit latency is sampled 1-in-64: the hit path is a few hundred
	// nanoseconds, so even one time.Now pair per hit would be a measurable
	// tax. Misses need no clock — the solver already measures WallTime.
	var start time.Time
	sampled := h.tick.Add(1)&63 == 0 && h.lat.Load() != nil
	if sampled {
		start = time.Now()
	}
	for {
		solver, ver, c, err := h.snapshot()
		if err != nil {
			return nil, err
		}
		key := cache.Key{Version: ver, S: s, T: t}
		if res, ok := c.Get(key); ok {
			out := cloneResult(res, true)
			out.Stats.TraceID = telemetry.TraceID(ctx)
			if sampled {
				if lc := h.lat.Load(); lc != nil {
					lc.hit.Observe(time.Since(start).Seconds())
				}
			}
			return out, nil
		}
		res, err := solver.solve(ctx, s, t, true)
		if errors.Is(err, ErrSolverClosed) && h.swappedSince(ver) {
			continue
		}
		if err != nil {
			return nil, err
		}
		h.gate.RecordServiceTime(res.Stats.WallTime)
		if lc := h.lat.Load(); lc != nil {
			lc.miss.Observe(res.Stats.WallTime.Seconds())
		}
		h.store(ver, key, res)
		res.Stats.TraceID = telemetry.TraceID(ctx)
		return res, nil
	}
}

// SolveBatch answers a batch with the cache in front: hits are filled
// in O(1), and only the misses fan out to the tenant's pool (repeated
// misses inside one batch still warm-start there). Results come back in
// query order and every answer — cached or fresh — is certified exact.
// The batch passes the admission gate as one request consuming one rate
// token per query (so a large batch cannot launder a rate limit) and one
// in-flight slot (its internal concurrency is already bounded by the
// pool size). An empty batch returns an empty result without passing the
// gate, as FlowSolver.SolveBatch does: it spends no token or slot.
func (h *NetworkHandle) SolveBatch(ctx context.Context, queries []FlowQuery) ([]*FlowResult, error) {
	if len(queries) == 0 {
		return []*FlowResult{}, nil
	}
	rel, err := h.gate.AdmitN(ctx, len(queries))
	if err != nil {
		return nil, fmt.Errorf("bcclap: network %q: %w", h.name, err)
	}
	defer rel()
	trace := telemetry.TraceID(ctx)
	for {
		solver, ver, c, err := h.snapshot()
		if err != nil {
			return nil, err
		}
		out := make([]*FlowResult, len(queries))
		var (
			missIdx []int
			misses  []FlowQuery
		)
		for i, q := range queries {
			if res, ok := c.Get(cache.Key{Version: ver, S: q.S, T: q.T}); ok {
				out[i] = cloneResult(res, true)
				out[i].Stats.TraceID = trace
			} else {
				missIdx = append(missIdx, i)
				misses = append(misses, q)
			}
		}
		if len(misses) > 0 {
			fresh, err := solver.SolveBatch(ctx, misses)
			if errors.Is(err, ErrSolverClosed) && h.swappedSince(ver) {
				// Lost the race with Swap: the whole batch re-runs against
				// the new network (its version keys a flushed cache, so
				// pre-swap hits cannot leak into the answer).
				continue
			}
			if err != nil {
				return nil, err
			}
			lc := h.lat.Load()
			for j, res := range fresh {
				h.gate.RecordServiceTime(res.Stats.WallTime)
				if lc != nil {
					lc.miss.Observe(res.Stats.WallTime.Seconds())
				}
				out[missIdx[j]] = res
				h.store(ver, cache.Key{Version: ver, S: misses[j].S, T: misses[j].T}, res)
				res.Stats.TraceID = trace
			}
		}
		return out, nil
	}
}

// Swap atomically replaces the tenant's network with d: a new solver is
// built first (per-call opts layer over the handle's current configuration
// and stick for future swaps), then — under one critical section — the
// swap is journaled (on a durable service), the solver switched,
// the version bumped and the tenant's cache invalidated. Queries in
// flight at the switch finish against the old network (its solver is
// drained, not killed), queries after it certify against d, and no other
// tenant is disturbed at any point. Any failure — construction (empty
// digraph, unknown backend) or journaling — leaves the handle serving the
// old network unchanged. A Swap racing another Swap or PatchArcs on the
// same tenant fails with ErrNetworkBusy (mutations serialize per tenant).
func (h *NetworkHandle) Swap(d *Digraph, opts ...Option) error {
	if !h.mutating.CompareAndSwap(false, true) {
		return fmt.Errorf("bcclap: network %q: %w", h.name, ErrNetworkBusy)
	}
	defer h.mutating.Store(false)
	h.mu.RLock()
	cfg := h.cfg
	h.mu.RUnlock()
	cfg.apply(opts)
	held := d.Clone()
	solver, err := newTenantSolver(held, cfg)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		solver.Close()
		return fmt.Errorf("bcclap: network %q: %w", h.name, ErrSolverClosed)
	}
	// Re-resolve: only a SetLimits can have changed h.cfg since the solver
	// was built (other mutations fail with ErrNetworkBusy); keep its limits.
	cfg = h.cfg
	cfg.apply(opts)
	if h.svc.log != nil {
		rec := store.Record{
			Type: store.RecSwap, Name: h.name, Version: h.version + 1,
			Opts: tenantOpts(cfg), N: held.N(), Arcs: held.Arcs(),
		}
		if err := h.svc.log.Append(rec); err != nil {
			h.mu.Unlock()
			solver.Close()
			return fmt.Errorf("bcclap: swap %q: %w", h.name, err)
		}
	}
	old := h.solver
	h.cfg = cfg
	h.solver = solver
	h.d = held
	h.version++
	// Whole-tenant invalidation. The cache object survives the swap; it
	// is only rebuilt when the budget changed, and then the cumulative
	// counters carry over so NetworkStats.Cache stays monotonic.
	h.cache.Flush()
	if cfg.cacheSize != h.cache.Capacity() {
		next := cache.New[*FlowResult](cfg.cacheSize)
		next.CarryCounters(h.cache)
		h.cache = next
	}
	// Apply the swap's QoS limits (validated above) and repoint the
	// hot-path histogram children at the new backend.
	h.gate.SetLimits(cfg.limits)
	h.lat.Store(h.svc.latFor(h.name, solver.Backend()))
	h.mu.Unlock()
	h.svc.swaps.Add(1)
	// Retire the old solver gracefully: queries that snapshotted it before
	// the switch run to completion; it only rejects queries that never
	// existed (nothing routes to it anymore).
	old.Drain(context.Background())
	return nil
}

// PatchArcs applies an all-or-nothing set of arc capacity/cost deltas to
// the tenant's network — the incremental alternative to Swap when
// topology is unchanged. Instead of building a new solver, the patch is
// journaled (on a durable service) and folded into the live worker
// sessions, which keep their LP structure, IPM sessions, backend
// workspaces and warm-start state (only each LP's bounds and start point
// are rewritten in place): the next solve of an affected terminal pair
// re-centers from the pre-patch optimum rather than re-running path
// following from scratch.
//
// The cache is invalidated selectively, not flushed: entries whose flow
// routes through a modified arc are dropped, and every other entry is
// re-certified against the patched network — kept (migrated to the new
// version) only if its flow is still provably optimal. Kept entries are
// exact, certified answers; note that after a patch a cached flow vector
// may differ from the one a fresh solve would pick when the optimum is
// degenerate, while value and cost always agree.
//
// Malformed delta sets (empty, arc index out of range, capacity driven
// non-positive) fail with ErrBadPatch before any state — durable or
// in-memory — changes. A PatchArcs racing another PatchArcs or Swap on
// the same tenant fails with ErrNetworkBusy.
func (h *NetworkHandle) PatchArcs(deltas []ArcDelta) error {
	if len(deltas) == 0 {
		return fmt.Errorf("bcclap: network %q: %w: empty delta set", h.name, ErrBadPatch)
	}
	if !h.mutating.CompareAndSwap(false, true) {
		return fmt.Errorf("bcclap: network %q: %w", h.name, ErrNetworkBusy)
	}
	defer h.mutating.Store(false)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("bcclap: network %q: %w", h.name, ErrSolverClosed)
	}
	if err := graph.CheckDeltas(h.d.Arcs(), deltas); err != nil {
		h.mu.Unlock()
		return fmt.Errorf("bcclap: network %q: %w", h.name, err)
	}
	oldVer, newVer := h.version, h.version+1
	if h.svc.log != nil {
		rec := store.Record{
			Type: store.RecPatch, Name: h.name, Version: newVer,
			Deltas: slices.Clone(deltas),
		}
		if err := h.svc.log.Append(rec); err != nil {
			h.mu.Unlock()
			return fmt.Errorf("bcclap: patch %q: %w", h.name, err)
		}
	}
	if err := h.d.ApplyDeltas(deltas); err != nil {
		// CheckDeltas passed above under the same lock, so this cannot
		// fail; surface it rather than diverge from the journal if it ever
		// does.
		h.mu.Unlock()
		return fmt.Errorf("bcclap: network %q: %w", h.name, err)
	}
	h.version = newVer
	h.patches++
	touched := make(map[int]struct{}, len(deltas))
	for _, dl := range deltas {
		touched[dl.Arc] = struct{}{}
	}
	// Selective invalidation: drop entries whose flow uses a modified arc
	// (their cost certainly changed), then re-certify the rest against the
	// patched network — a flow avoiding every touched arc can still lose
	// optimality (a patched arc may now offer a cheaper or wider route).
	d := h.d
	h.cache.Rekey(oldVer, newVer, func(k cache.Key, res *FlowResult) bool {
		for a := range touched {
			if a < len(res.Flows) && res.Flows[a] != 0 {
				return true
			}
		}
		return flow.CertifyOptimal(d, k.S, k.T, res.Flows) != nil
	})
	// Enqueue on every worker while still holding the write lock — no query
	// can slip between the version bump and the patch broadcast — then wait
	// outside it so queries ahead of the patch in the worker queues can
	// finish.
	wait, err := h.solver.patchAsync(deltas)
	h.mu.Unlock()
	if err != nil {
		return fmt.Errorf("bcclap: patch %q: %w", h.name, err)
	}
	if err := wait(); err != nil {
		return fmt.Errorf("bcclap: patch %q: %w", h.name, err)
	}
	h.svc.patches.Add(1)
	return nil
}

// SetLimits replaces the tenant's QoS limits at runtime (the REST
// layer's PATCH /v1/networks/{name}/limits). The change is journaled on
// a durable service — limits survive restarts like any other tenant
// configuration — and applies to subsequent admissions immediately:
// tightening never revokes in-flight requests, loosening to unlimited
// admits every queued waiter. The network version is not bumped (limits
// do not affect results), so cached entries stay valid. Invalid limits
// fail with ErrBadLimits before anything changes.
func (h *NetworkHandle) SetLimits(l Limits) error {
	if err := l.Validate(); err != nil {
		return fmt.Errorf("bcclap: network %q: %w", h.name, err)
	}
	if l.QueueDepth < 0 {
		l.QueueDepth = -1 // canonical "queueing disabled"
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("bcclap: network %q: %w", h.name, ErrSolverClosed)
	}
	if h.svc.log != nil {
		next := h.cfg
		next.limits = l
		rec := store.Record{
			Type: store.RecLimits, Name: h.name, Version: h.version,
			Opts: tenantOpts(next),
		}
		if err := h.svc.log.Append(rec); err != nil {
			h.mu.Unlock()
			return fmt.Errorf("bcclap: set limits %q: %w", h.name, err)
		}
	}
	h.gate.SetLimits(l)
	// A later Swap starts from h.cfg, so it keeps these limits.
	h.cfg.limits = l
	h.mu.Unlock()
	return nil
}

// Limits returns the tenant's current QoS limit set (zero value when
// unlimited).
func (h *NetworkHandle) Limits() Limits { return h.gate.Limits() }

// RetryAfter estimates how long a rejected client should wait before
// retrying — the predicted admission wait for a request joining the
// queue now (0 when the gate has no basis for an estimate). The REST
// layer rounds it up into the Retry-After header on 429 responses.
func (h *NetworkHandle) RetryAfter() time.Duration { return h.gate.RetryAfter() }

// Stats snapshots the tenant (see NetworkStats).
func (h *NetworkHandle) Stats() NetworkStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return NetworkStats{
		Name:      h.name,
		Version:   h.version,
		Patches:   h.patches,
		Vertices:  h.d.N(),
		Arcs:      h.d.M(),
		Backend:   h.solver.Backend(),
		PoolSize:  h.solver.PoolSize(),
		Pool:      h.solver.PoolStats(),
		Cache:     h.cache.Stats(),
		Admission: h.gate.Stats(),
	}
}

// shut marks the handle closed and invalidates its cache, returning the
// solver for the caller to drain or close (both idempotent).
func (h *NetworkHandle) shut() *FlowSolver {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cache.Flush()
	return h.solver
}

// latChildren are the prebuilt hot-path histogram children for one
// (tenant, backend) pair: the solve path reaches them with one atomic
// load and records with no map lookups or allocation.
type latChildren struct {
	hit, miss *telemetry.Histogram
}

// latFor prebuilds the latency children for a tenant and backend (nil
// with telemetry disabled — callers skip recording on nil).
func (s *Service) latFor(tenant, backend string) *latChildren {
	if s.tel == nil {
		return nil
	}
	return &latChildren{
		hit:  s.tel.solveLatency.With(tenant, backend, "hit"),
		miss: s.tel.solveLatency.With(tenant, backend, "miss"),
	}
}

// serviceTelemetry is the service's metrics registry. Exactly one family
// — solve latency — is recorded on the serving paths; every other family
// is a scrape-time collector synthesizing samples from a single
// ServiceStats snapshot taken in WriteMetrics, so the daemon's whole
// observability surface costs the hot path nothing.
type serviceTelemetry struct {
	reg          *telemetry.Registry
	solveLatency *telemetry.HistogramVec // {tenant, backend, cache}

	// scrapeMu serializes scrapes; snap is the snapshot the collector
	// closures read and is only valid while scrapeMu is held.
	scrapeMu sync.Mutex
	snap     ServiceStats
}

func newServiceTelemetry() *serviceTelemetry {
	t := &serviceTelemetry{reg: telemetry.NewRegistry()}
	t.solveLatency = t.reg.HistogramVec("bcclap_solve_latency_seconds",
		"Solve latency by tenant, backend and cache outcome. Misses record the solver-measured wall time of every fresh solve; hits are sampled 1 in 64 to keep the cached path cheap.",
		nil, "tenant", "backend", "cache")
	t.registerCollectors()
	return t
}

// WriteMetrics renders every metric family in the Prometheus text
// exposition format, version 0.0.4 (the daemon serves it at
// GET /metrics). Families and label sets are emitted in sorted order
// with HELP/TYPE headers even when empty, so the exposed name/type
// schema is independent of traffic. It fails when the service was built
// with WithTelemetry(false).
func (s *Service) WriteMetrics(w io.Writer) error {
	if s.tel == nil {
		return errors.New("bcclap: telemetry disabled by WithTelemetry(false)")
	}
	t := s.tel
	t.scrapeMu.Lock()
	defer t.scrapeMu.Unlock()
	t.snap = s.ServiceStats()
	err := t.reg.WritePrometheus(w)
	t.snap = ServiceStats{}
	return err
}

// registerCollectors declares the scrape-time families. Each collector
// closure reads t.snap, which WriteMetrics populates under scrapeMu
// before encoding.
func (t *serviceTelemetry) registerCollectors() {
	r := t.reg
	tenant := []string{"tenant"}
	perNet := func(fn func(emit func(v float64, lv ...string), ns *NetworkStats)) func(emit func(v float64, lv ...string)) {
		return func(emit func(v float64, lv ...string)) {
			for i := range t.snap.PerNetwork {
				fn(emit, &t.snap.PerNetwork[i])
			}
		}
	}
	gaugeNet := func(name, help string, fn func(ns *NetworkStats) float64) {
		r.CollectFunc(name, help, "gauge", tenant,
			perNet(func(emit func(v float64, lv ...string), ns *NetworkStats) { emit(fn(ns), ns.Name) }))
	}
	counterNet := func(name, help string, fn func(ns *NetworkStats) float64) {
		r.CollectFunc(name, help, "counter", tenant,
			perNet(func(emit func(v float64, lv ...string), ns *NetworkStats) { emit(fn(ns), ns.Name) }))
	}

	r.CollectFunc("bcclap_networks", "Currently registered networks.", "gauge", nil,
		func(emit func(v float64, lv ...string)) { emit(float64(t.snap.Networks)) })
	r.CollectFunc("bcclap_lifecycle_total",
		"Lifecycle events since the service started; replayed tenants count as registered.",
		"counter", []string{"op"},
		func(emit func(v float64, lv ...string)) {
			emit(float64(t.snap.Registered), "registered")
			emit(float64(t.snap.Deregistered), "deregistered")
			emit(float64(t.snap.Swaps), "swapped")
			emit(float64(t.snap.Patches), "patched")
		})

	gaugeNet("bcclap_network_version", "Monotonic network version (bumped by Swap and PatchArcs).",
		func(ns *NetworkStats) float64 { return float64(ns.Version) })
	counterNet("bcclap_network_patches_total", "Successful PatchArcs calls over the tenant's lifetime.",
		func(ns *NetworkStats) float64 { return float64(ns.Patches) })

	r.CollectFunc("bcclap_solves_total", "Finished pool solves by outcome.",
		"counter", []string{"tenant", "result"},
		perNet(func(emit func(v float64, lv ...string), ns *NetworkStats) {
			emit(float64(ns.Pool.Completed), ns.Name, "ok")
			emit(float64(ns.Pool.Failed), ns.Name, "error")
		}))
	gaugeNet("bcclap_pool_workers", "Worker sessions behind the tenant's solver pool.",
		func(ns *NetworkStats) float64 { return float64(ns.Pool.Workers) })
	gaugeNet("bcclap_pool_in_flight", "Accepted but unfinished pool tasks (queued or running).",
		func(ns *NetworkStats) float64 { return float64(ns.Pool.InFlight) })
	counterNet("bcclap_pool_submitted_total", "Queries accepted by the tenant's pool.",
		func(ns *NetworkStats) float64 { return float64(ns.Pool.Submitted) })
	counterNet("bcclap_pool_warm_started_total", "Completions that skipped path following via warm start.",
		func(ns *NetworkStats) float64 { return float64(ns.Pool.WarmStarted) })
	counterNet("bcclap_pool_patches_total", "Per-worker patch applications.",
		func(ns *NetworkStats) float64 { return float64(ns.Pool.Patches) })

	counterNet("bcclap_cache_hits_total", "Certified-result cache hits.",
		func(ns *NetworkStats) float64 { return float64(ns.Cache.Hits) })
	counterNet("bcclap_cache_misses_total", "Certified-result cache misses.",
		func(ns *NetworkStats) float64 { return float64(ns.Cache.Misses) })
	counterNet("bcclap_cache_evictions_total", "Cache entries dropped by budget pressure.",
		func(ns *NetworkStats) float64 { return float64(ns.Cache.Evictions) })
	counterNet("bcclap_cache_invalidations_total", "Cache entries dropped by flush or patch invalidation.",
		func(ns *NetworkStats) float64 { return float64(ns.Cache.Invalidations) })
	gaugeNet("bcclap_cache_entries", "Current cache entries.",
		func(ns *NetworkStats) float64 { return float64(ns.Cache.Entries) })
	gaugeNet("bcclap_cache_capacity", "Cache entry budget (0 = caching disabled).",
		func(ns *NetworkStats) float64 { return float64(ns.Cache.Capacity) })

	counterNet("bcclap_admission_admitted_total", "Queries admitted by the QoS gate (a batch of k counts k).",
		func(ns *NetworkStats) float64 { return float64(ns.Admission.Admitted) })
	counterNet("bcclap_admission_queued_total", "Requests that waited in the admission queue.",
		func(ns *NetworkStats) float64 { return float64(ns.Admission.Queued) })
	r.CollectFunc("bcclap_admission_rejected_total", "Admission rejections by reason.",
		"counter", []string{"tenant", "reason"},
		perNet(func(emit func(v float64, lv ...string), ns *NetworkStats) {
			emit(float64(ns.Admission.RejectedQueueFull), ns.Name, "queue_full")
			emit(float64(ns.Admission.RejectedDeadline), ns.Name, "deadline")
			emit(float64(ns.Admission.Canceled), ns.Name, "canceled")
		}))
	counterNet("bcclap_admission_queue_wait_seconds_total", "Cumulative time requests spent queued for admission.",
		func(ns *NetworkStats) float64 { return ns.Admission.QueueWait.Seconds() })
	gaugeNet("bcclap_admission_in_flight", "Currently admitted, unreleased requests.",
		func(ns *NetworkStats) float64 { return float64(ns.Admission.InFlight) })
	gaugeNet("bcclap_admission_queue_depth", "Requests currently waiting for admission.",
		func(ns *NetworkStats) float64 { return float64(ns.Admission.QueueDepth) })
	gaugeNet("bcclap_admission_rate_limit_per_sec", "Configured sustained admission rate (0 = unlimited).",
		func(ns *NetworkStats) float64 { return ns.Admission.Limits.RatePerSec })
	gaugeNet("bcclap_admission_max_in_flight", "Configured in-flight cap (0 = unlimited).",
		func(ns *NetworkStats) float64 { return float64(ns.Admission.Limits.MaxInFlight) })
	gaugeNet("bcclap_admission_mean_service_seconds", "EWMA of recent fresh-solve service times (feeds Retry-After).",
		func(ns *NetworkStats) float64 { return ns.Admission.MeanServiceTime.Seconds() })

	storeSample := func(name, help, typ string, fn func(st *StoreStats) float64) {
		r.CollectFunc(name, help, typ, nil, func(emit func(v float64, lv ...string)) {
			if t.snap.Store != nil {
				emit(fn(t.snap.Store))
			}
		})
	}
	storeSample("bcclap_store_appends_total", "WAL records appended since the store opened.", "counter",
		func(st *StoreStats) float64 { return float64(st.Appends) })
	storeSample("bcclap_store_fsyncs_total", "WAL fsyncs on the append path (0 under SyncNever).", "counter",
		func(st *StoreStats) float64 { return float64(st.Fsyncs) })
	storeSample("bcclap_store_snapshots_total", "Successful snapshot compactions.", "counter",
		func(st *StoreStats) float64 { return float64(st.Snapshots) })
	storeSample("bcclap_store_snapshot_errors_total", "Failed automatic compactions.", "counter",
		func(st *StoreStats) float64 { return float64(st.SnapshotErrors) })
	storeSample("bcclap_store_replayed_records", "WAL records replayed on top of the newest snapshot at the last open.", "gauge",
		func(st *StoreStats) float64 { return float64(st.Replayed) })
	storeSample("bcclap_store_wal_bytes", "Current WAL file size.", "gauge",
		func(st *StoreStats) float64 { return float64(st.WALBytes) })
}

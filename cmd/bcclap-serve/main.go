// Command bcclap-serve is an always-on, multi-tenant HTTP/JSON daemon
// serving certified min-cost max-flow queries (Theorem 1.1 as a service).
// One process fronts many named, versioned flow networks through a
// bcclap.Service: each tenant owns a pool of solver sessions plus
// a certified-result cache, networks are registered, swapped and retired
// over REST without restarting the daemon, and repeated queries against
// an unchanged network are answered in O(1) from the cache — bit-identical
// to a fresh solve, because every result is exact and deterministic.
//
// Endpoints:
//
//	PUT    /v1/networks/{name}            register (201) or atomically swap (200)
//	PATCH  /v1/networks/{name}/arcs       incremental arc cap/cost deltas
//	GET    /v1/networks                   list tenants with stats
//	GET    /v1/networks/{name}            one tenant's stats
//	GET    /v1/networks/{name}/stats      alias of the above
//	DELETE /v1/networks/{name}            drain and deregister
//	POST   /v1/networks/{name}/flow       {"s": 0, "t": 5, "include_flows": true}
//	POST   /v1/networks/{name}/flow/batch {"queries": [{"s": 0, "t": 5}, ...]}
//	PATCH  /v1/networks/{name}/limits     change a tenant's QoS limits at runtime
//	GET    /v1/stats                      service-wide counters
//	GET    /metrics                       Prometheus text exposition (disable with -metrics=false)
//	GET    /healthz                       readiness probe: 200 only once store replay
//	                                      finished and while not draining, else 503
//
// Request bodies over 1 MiB (maxBodyBytes) answer 413.
//
// Per-tenant QoS: -rate-limit/-burst/-max-in-flight/-queue-depth set
// daemon-wide admission defaults, and a PUT spec or a PATCH .../limits
// body overrides them per tenant. A tenant at its limits queues up to the
// admission-queue bound and then rejects with 429; the Retry-After header
// on those responses is computed from the tenant's queue depth and recent
// mean solve latency rather than a constant. Every request is tagged with
// an X-Trace-Id (minted unless the client sent one), echoed in the
// response headers, the structured request log and error bodies, and
// threaded into each solve's Stats.
//
// With -data-dir the daemon is durable: tenant lifecycle mutations
// (register, swap, arc patches, deregister) are journaled to a
// write-ahead log under the directory before they take effect, and a
// restarted daemon replays it — every network comes back at its last
// version with its solver configuration, serving bit-identical results,
// without any re-registration. -fsync and -snapshot-every tune the
// durability/throughput trade-off and the compaction cadence.
//
// PATCH /v1/networks/{name}/arcs takes {"deltas": [{"arc": i,
// "cap_delta": c, "cost_delta": q}, ...]} — additive, all-or-nothing,
// topology-preserving. A patch keeps the tenant's solver pool alive
// (warm-start state included, so the next solve of an affected pair
// re-centers instead of re-running path following) and invalidates only
// the cached results the deltas actually touch. Malformed bodies and
// delta sets are rejected with 400 and a sentinel-bearing error message;
// a patch or swap racing another mutation of the same tenant gets 429
// with a Retry-After hint.
//
// The daemon starts with the tenants its -data-dir store replays (none
// without one); further tenants arrive over PUT, and a "random_n" spec
// without its own "seed" draws its network from -seed. SIGINT/SIGTERM
// drains gracefully: the listener stops, in-flight solves finish (bounded
// by -drain-timeout), then every tenant shuts down; queries arriving
// during the drain are rejected with 503 and a Retry-After header so load
// balancers back off instead of retrying hot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bcclap"
	"bcclap/internal/graph"
	"bcclap/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "random seed (random_n network specs and perturbations)")
	backend := flag.String("backend", "", "default AᵀDA solve backend: "+strings.Join(bcclap.FlowBackends(), ", ")+" (default: dense)")
	poolSize := flag.Int("pool", 4, "default worker sessions per network")
	cacheSize := flag.Int("cache", bcclap.DefaultCacheSize, "default certified-result cache entries per network (0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request solve timeout (0 = no limit)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight solves")
	dataDir := flag.String("data-dir", "", "durable tenant store directory (empty = memory-only); a restarted daemon replays it")
	fsync := flag.String("fsync", "always", "WAL fsync policy with -data-dir: always or never")
	snapEvery := flag.Int("snapshot-every", 0, "WAL records between compacted snapshots (0 = store default, negative disables)")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics")
	rateLimit := flag.Float64("rate-limit", 0, "default per-tenant admission rate in queries/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "default token-bucket burst with -rate-limit (0 = ceil of the rate)")
	maxInFlight := flag.Int("max-in-flight", 0, "default per-tenant cap on concurrently admitted requests (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", -1, "default admission queue bound once limits are active (-1 = built-in default, 0 = reject instead of queue)")
	flag.Parse()

	if err := run(serveConfig{
		addr: *addr, seed: *seed,
		backend: *backend, poolSize: *poolSize, cacheSize: *cacheSize,
		timeout: *timeout, drainTimeout: *drainTimeout,
		dataDir: *dataDir, fsync: *fsync, snapEvery: *snapEvery,
		metrics: *metrics, rateLimit: *rateLimit, burst: *burst,
		maxInFlight: *maxInFlight, queueDepth: *queueDepth,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bcclap-serve:", err)
		os.Exit(1)
	}
}

// serveConfig bundles the flag values so run stays callable from tests.
type serveConfig struct {
	addr         string
	seed         int64
	backend      string
	poolSize     int
	cacheSize    int
	timeout      time.Duration
	drainTimeout time.Duration
	dataDir      string
	fsync        string
	snapEvery    int
	metrics      bool
	rateLimit    float64
	burst        int
	maxInFlight  int
	queueDepth   int
}

func run(cfg serveConfig) error {
	if cfg.poolSize < 1 {
		return fmt.Errorf("-pool must be at least 1, got %d", cfg.poolSize)
	}
	if names := bcclap.FlowBackends(); cfg.backend != "" && !slices.Contains(names, cfg.backend) {
		return fmt.Errorf("-backend: %w %q (registered: %v)", bcclap.ErrBackendUnknown, cfg.backend, names)
	}
	opts := []bcclap.Option{
		bcclap.WithSeed(cfg.seed),
		bcclap.WithBackend(cfg.backend),
		bcclap.WithPoolSize(cfg.poolSize),
		bcclap.WithCacheSize(cfg.cacheSize),
		bcclap.WithTelemetry(cfg.metrics),
	}
	if cfg.rateLimit > 0 {
		opts = append(opts, bcclap.WithRateLimit(cfg.rateLimit, cfg.burst))
	}
	if cfg.maxInFlight > 0 {
		opts = append(opts, bcclap.WithMaxInFlight(cfg.maxInFlight))
	}
	if cfg.queueDepth >= 0 {
		opts = append(opts, bcclap.WithQueueDepth(cfg.queueDepth))
	}
	if cfg.dataDir != "" {
		switch cfg.fsync {
		case "", "always":
			opts = append(opts, bcclap.WithStoreSync(bcclap.SyncAlways))
		case "never":
			opts = append(opts, bcclap.WithStoreSync(bcclap.SyncNever))
		default:
			return fmt.Errorf("-fsync must be \"always\" or \"never\", got %q", cfg.fsync)
		}
		opts = append(opts, bcclap.WithStore(cfg.dataDir), bcclap.WithSnapshotEvery(cfg.snapEvery))
	}

	// The listener comes up before the (potentially long) store replay so
	// orchestrators see the port and /healthz answers immediately — 503
	// with {"status":"starting"} until the service attaches, 200 after.
	s := newServer(nil, cfg.timeout, cfg.drainTimeout, cfg.seed)
	s.metricsOn = cfg.metrics
	srv := &http.Server{Addr: cfg.addr, Handler: s.routes()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("bcclap-serve: listening on %s (pool=%d cache=%d)",
			cfg.addr, cfg.poolSize, cfg.cacheSize)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	svc, err := bcclap.OpenService(opts...)
	if err != nil {
		srv.Close()
		return err
	}
	if replayed := svc.Names(); len(replayed) > 0 {
		log.Printf("bcclap-serve: recovered %d tenants from %s: %s",
			len(replayed), cfg.dataDir, strings.Join(replayed, ", "))
	}
	s.attach(svc)
	log.Printf("bcclap-serve: ready (tenants=%d)", len(svc.Names()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true) // /healthz flips to 503 for the whole drain
	log.Printf("bcclap-serve: draining %d tenants (budget %v)", len(svc.Names()), cfg.drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("bcclap-serve: http shutdown: %v", err)
	}
	if err := svc.Drain(shCtx); err != nil {
		log.Printf("bcclap-serve: service drain: %v", err)
		svc.Close()
	}
	log.Printf("bcclap-serve: stopped")
	return nil
}

// server carries the daemon state shared by all request goroutines: the
// multi-tenant service (concurrency-safe, attached once replay finishes)
// and the HTTP-level counters and metrics.
type server struct {
	svc         atomic.Pointer[bcclap.Service] // nil until attach: still replaying
	draining    atomic.Bool
	timeout     time.Duration
	retryAfter  string // Retry-After seconds advertised on 503
	defaultSeed int64  // -seed: instance generation for "random_n" specs
	started     time.Time
	metricsOn   bool

	// httpReg holds the daemon-owned HTTP families, separate from the
	// service registry so both can be concatenated at /metrics.
	httpReg  *telemetry.Registry
	httpReqs *telemetry.CounterVec   // {method, route, code}
	httpDur  *telemetry.HistogramVec // {route}

	requests atomic.Int64 // HTTP requests accepted
	solved   atomic.Int64 // queries answered with a certified flow
	failed   atomic.Int64 // queries that returned an error
}

func newServer(svc *bcclap.Service, timeout, drainTimeout time.Duration, defaultSeed int64) *server {
	retry := int(math.Ceil(drainTimeout.Seconds()))
	if retry < 1 {
		retry = 1
	}
	s := &server{
		timeout:     timeout,
		retryAfter:  strconv.Itoa(retry),
		defaultSeed: defaultSeed,
		started:     time.Now(),
		metricsOn:   true,
		httpReg:     telemetry.NewRegistry(),
	}
	s.httpReqs = s.httpReg.CounterVec("bcclap_http_requests_total",
		"HTTP requests by method, matched route and response code.",
		"method", "route", "code")
	s.httpDur = s.httpReg.HistogramVec("bcclap_http_request_duration_seconds",
		"End-to-end HTTP request duration by matched route.",
		nil, "route")
	if svc != nil {
		s.attach(svc)
	}
	return s
}

// attach publishes the service and flips the daemon ready: until this,
// every route except /healthz and /metrics answers 503.
func (s *server) attach(svc *bcclap.Service) { s.svc.Store(svc) }

// service returns the attached service, or nil while the store replay is
// still running (the readiness middleware keeps handlers from seeing
// that state).
func (s *server) service() *bcclap.Service { return s.svc.Load() }

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/networks/{name}", s.handlePutNetwork)
	mux.HandleFunc("PATCH /v1/networks/{name}/arcs", s.handlePatchArcs)
	mux.HandleFunc("PATCH /v1/networks/{name}/limits", s.handlePatchLimits)
	mux.HandleFunc("GET /v1/networks", s.handleListNetworks)
	mux.HandleFunc("GET /v1/networks/{name}", s.handleNetworkStats)
	mux.HandleFunc("GET /v1/networks/{name}/stats", s.handleNetworkStats)
	mux.HandleFunc("DELETE /v1/networks/{name}", s.handleDeleteNetwork)
	mux.HandleFunc("POST /v1/networks/{name}/flow", s.handleFlow)
	mux.HandleFunc("POST /v1/networks/{name}/flow/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if s.metricsOn {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.middleware(mux)
}

// statusWriter captures the response code for the request log and the
// HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware wraps the mux with the daemon's cross-cutting concerns:
// readiness gating, per-request trace IDs, the structured request log
// and the HTTP metric families.
func (s *server) middleware(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get("X-Trace-Id")
		if trace == "" {
			trace = telemetry.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", trace)
		r = r.WithContext(telemetry.WithTraceID(r.Context(), trace))

		// Readiness gate: while the store replay runs the service pointer
		// is nil, and during drain new work is pointless — both answer 503
		// so load balancers back off. /healthz reports the state itself
		// and /metrics stays scrapeable throughout.
		if path := r.URL.Path; path != "/healthz" && path != "/metrics" {
			if s.service() == nil || s.draining.Load() {
				w.Header().Set("Retry-After", s.retryAfter)
				writeJSON(w, http.StatusServiceUnavailable,
					errorResponse{Error: "service not ready", Trace: trace})
				return
			}
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		dur := time.Since(start)
		// r.Pattern was filled in by the mux match ("" on 404s).
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		s.httpReqs.With(r.Method, route, strconv.Itoa(sw.status)).Inc()
		s.httpDur.With(route).Observe(dur.Seconds())
		logLine, _ := json.Marshal(map[string]any{
			"trace":       trace,
			"method":      r.Method,
			"path":        r.URL.Path,
			"route":       route,
			"status":      sw.status,
			"duration_ms": float64(dur.Microseconds()) / 1000,
		})
		log.Printf("bcclap-serve: request %s", logLine)
	})
}

// tenant resolves the request's target handle from the {name} path
// segment.
func (s *server) tenant(r *http.Request) (*bcclap.NetworkHandle, error) {
	return s.service().Get(r.PathValue("name"))
}

// networkSpec is the PUT /v1/networks/{name} body: the network itself —
// explicit arcs or a seeded random instance — plus per-tenant solver
// overrides layered over the daemon-wide defaults.
type networkSpec struct {
	// N and Arcs define the network: Arcs entries are [from, to,
	// capacity, cost] quadruples.
	N    int        `json:"n"`
	Arcs [][4]int64 `json:"arcs"`
	// RandomN generates a random network instead (mutually exclusive
	// with Arcs), using Seed.
	RandomN int `json:"random_n,omitempty"`
	// Per-tenant overrides; zero values inherit the daemon defaults.
	Seed      *int64  `json:"seed,omitempty"`
	Backend   *string `json:"backend,omitempty"`
	Pool      *int    `json:"pool,omitempty"`
	CacheSize *int    `json:"cache_size,omitempty"`
	// QoS overrides, option-surface conventions: rate 0 = unlimited,
	// queue_depth 0 = reject instead of queue.
	RatePerSec  *float64 `json:"rate_per_sec,omitempty"`
	Burst       *int     `json:"burst,omitempty"`
	MaxInFlight *int     `json:"max_in_flight,omitempty"`
	QueueDepth  *int     `json:"queue_depth,omitempty"`
}

// Size bounds on a PUT spec, checked before anything is allocated: a
// random instance has about 0.3·random_n² arcs, and every pool worker
// holds its own copy of the network. "n" is bounded by graph.MaxVertices.
const (
	maxRandomN  = 64
	maxSpecPool = 64
)

// digraph checks the spec's sizes and materializes its network. Random
// instances without an explicit "seed" inherit the daemon's -seed default.
func (spec *networkSpec) digraph(defaultSeed int64) (*graph.Digraph, error) {
	if spec.Pool != nil && *spec.Pool > maxSpecPool {
		return nil, fmt.Errorf("pool %d exceeds the limit of %d", *spec.Pool, maxSpecPool)
	}
	if spec.RandomN > 0 {
		if len(spec.Arcs) > 0 {
			return nil, errors.New("random_n and arcs are mutually exclusive")
		}
		if spec.RandomN > maxRandomN {
			return nil, fmt.Errorf("random_n %d exceeds the limit of %d", spec.RandomN, maxRandomN)
		}
		seed := defaultSeed
		if spec.Seed != nil {
			seed = *spec.Seed
		}
		return graph.RandomFlowNetwork(spec.RandomN, 0.3, 3, 3, rand.New(rand.NewSource(seed))), nil
	}
	if spec.N <= 0 || len(spec.Arcs) == 0 {
		return nil, errors.New(`network spec needs "n" and "arcs" (or "random_n")`)
	}
	if spec.N > graph.MaxVertices {
		return nil, fmt.Errorf("n %d exceeds the limit of %d", spec.N, graph.MaxVertices)
	}
	d := graph.NewDigraph(spec.N)
	for i, a := range spec.Arcs {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			return nil, fmt.Errorf("arc %d: %w", i, err)
		}
	}
	return d, nil
}

// options translates the spec's overrides into session options.
func (spec *networkSpec) options() []bcclap.Option {
	var opts []bcclap.Option
	if spec.Seed != nil {
		opts = append(opts, bcclap.WithSeed(*spec.Seed))
	}
	if spec.Backend != nil {
		opts = append(opts, bcclap.WithBackend(*spec.Backend))
	}
	if spec.Pool != nil {
		opts = append(opts, bcclap.WithPoolSize(*spec.Pool))
	}
	if spec.CacheSize != nil {
		opts = append(opts, bcclap.WithCacheSize(*spec.CacheSize))
	}
	if spec.RatePerSec != nil {
		b := 0
		if spec.Burst != nil {
			b = *spec.Burst
		}
		opts = append(opts, bcclap.WithRateLimit(*spec.RatePerSec, b))
	}
	if spec.MaxInFlight != nil {
		opts = append(opts, bcclap.WithMaxInFlight(*spec.MaxInFlight))
	}
	if spec.QueueDepth != nil {
		opts = append(opts, bcclap.WithQueueDepth(*spec.QueueDepth))
	}
	return opts
}

// networkResponse summarizes one tenant for the lifecycle endpoints.
type networkResponse struct {
	Name      string                `json:"name"`
	Version   uint64                `json:"version"`
	Patches   uint64                `json:"patches"`
	N         int                   `json:"n"`
	M         int                   `json:"m"`
	Backend   string                `json:"backend"`
	PoolSize  int                   `json:"pool_size"`
	Cache     bcclap.CacheStats     `json:"cache"`
	Pool      bcclap.PoolStats      `json:"pool"`
	Admission bcclap.AdmissionStats `json:"admission"`
}

func toNetworkResponse(ns bcclap.NetworkStats) networkResponse {
	return networkResponse{
		Name:      ns.Name,
		Version:   ns.Version,
		Patches:   ns.Patches,
		N:         ns.Vertices,
		M:         ns.Arcs,
		Backend:   ns.Backend,
		PoolSize:  ns.PoolSize,
		Cache:     ns.Cache,
		Pool:      ns.Pool,
		Admission: ns.Admission,
	}
}

// handlePutNetwork registers a new tenant (201) or atomically swaps a
// live one to the posted network (200, version bumped, cache flushed) —
// one idempotent PUT vocabulary for both, podman-style.
func (s *server) handlePutNetwork(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	name := r.PathValue("name")
	var spec networkSpec
	if err := decodeBody(w, r, &spec); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: bad request body: %w", bcclap.ErrBadSpec, err))
		return
	}
	d, err := spec.digraph(s.defaultSeed)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %v", bcclap.ErrBadSpec, err))
		return
	}
	status := http.StatusCreated
	h, err := s.service().Register(name, d, spec.options()...)
	if errors.Is(err, bcclap.ErrNetworkExists) {
		status = http.StatusOK
		if h, err = s.service().Get(name); err == nil {
			err = h.Swap(d, spec.options()...)
		}
	}
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, status, toNetworkResponse(h.Stats()))
}

// patchSpec is the PATCH /v1/networks/{name}/arcs body.
type patchSpec struct {
	Deltas []arcDelta `json:"deltas"`
}

// arcDelta mirrors bcclap.ArcDelta on the wire.
type arcDelta struct {
	Arc       int   `json:"arc"`
	CapDelta  int64 `json:"cap_delta"`
	CostDelta int64 `json:"cost_delta"`
}

// handlePatchArcs applies incremental arc deltas to a live tenant: the
// version bumps, the solver pool (warm-start state included) survives,
// and only the cached results the deltas touch are invalidated. Malformed
// bodies and delta sets get 400 with the sentinel in the message; a patch
// racing another mutation of the same tenant gets 429 + Retry-After.
func (s *server) handlePatchArcs(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	h, err := s.tenant(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	var spec patchSpec
	if err := decodeBody(w, r, &spec); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: bad request body: %w", bcclap.ErrBadSpec, err))
		return
	}
	deltas := make([]bcclap.ArcDelta, len(spec.Deltas))
	for i, dl := range spec.Deltas {
		deltas[i] = bcclap.ArcDelta{Arc: dl.Arc, CapDelta: dl.CapDelta, CostDelta: dl.CostDelta}
	}
	if err := h.PatchArcs(deltas); err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toNetworkResponse(h.Stats()))
}

// limitsSpec is the PATCH /v1/networks/{name}/limits body. Every field
// is optional: absent fields keep their current value, so a body like
// {"rate_per_sec": 50} only changes the rate. Fields mirror
// bcclap.Limits (gate conventions: queue_depth 0 = built-in default,
// negative = reject instead of queue).
type limitsSpec struct {
	RatePerSec  *float64 `json:"rate_per_sec,omitempty"`
	Burst       *int     `json:"burst,omitempty"`
	MaxInFlight *int     `json:"max_in_flight,omitempty"`
	QueueDepth  *int     `json:"queue_depth,omitempty"`
}

// handlePatchLimits changes a tenant's QoS limits at runtime. The merge
// is read-modify-write against the current limits; the result is
// journaled on a durable daemon (limits survive restarts) and applies to
// subsequent admissions immediately. Responds with the updated tenant
// stats; invalid limits get 400 with the ErrBadLimits sentinel.
func (s *server) handlePatchLimits(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	h, err := s.tenant(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	var spec limitsSpec
	if err := decodeBody(w, r, &spec); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: bad request body: %w", bcclap.ErrBadSpec, err))
		return
	}
	l := h.Limits()
	if spec.RatePerSec != nil {
		l.RatePerSec = *spec.RatePerSec
	}
	if spec.Burst != nil {
		l.Burst = *spec.Burst
	}
	if spec.MaxInFlight != nil {
		l.MaxInFlight = *spec.MaxInFlight
	}
	if spec.QueueDepth != nil {
		l.QueueDepth = *spec.QueueDepth
	}
	if err := h.SetLimits(l); err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toNetworkResponse(h.Stats()))
}

func (s *server) handleListNetworks(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st := s.service().ServiceStats()
	nets := make([]networkResponse, len(st.PerNetwork))
	for i, ns := range st.PerNetwork {
		nets[i] = toNetworkResponse(ns)
	}
	writeJSON(w, http.StatusOK, map[string]any{"networks": nets})
}

func (s *server) handleNetworkStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	h, err := s.tenant(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toNetworkResponse(h.Stats()))
}

func (s *server) handleDeleteNetwork(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if err := s.service().Deregister(r.PathValue("name")); err != nil {
		s.writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

type flowRequest struct {
	S            int  `json:"s"`
	T            int  `json:"t"`
	IncludeFlows bool `json:"include_flows,omitempty"`
}

type batchRequest struct {
	Queries      []flowRequest `json:"queries"`
	IncludeFlows bool          `json:"include_flows,omitempty"`
}

// flowResponse is one certified answer plus its per-solve accountability
// record (the Stats every scaling claim is audited against).
type flowResponse struct {
	S           int     `json:"s"`
	T           int     `json:"t"`
	Value       int64   `json:"value"`
	Cost        int64   `json:"cost"`
	PathSteps   int     `json:"path_steps"`
	CacheHit    bool    `json:"cache_hit"`
	WarmStarted bool    `json:"warm_started"`
	Reused      bool    `json:"reused_preprocessing"`
	WallMS      float64 `json:"wall_ms"`
	Trace       string  `json:"trace,omitempty"`
	Flows       []int64 `json:"flows,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Trace string `json:"trace,omitempty"`
}

func (s *server) solveCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

func (s *server) handleFlow(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	h, err := s.tenant(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	var req flowRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: bad request body: %w", bcclap.ErrBadQuery, err))
		return
	}
	ctx, cancel := s.solveCtx(r)
	defer cancel()
	res, err := h.Solve(ctx, req.S, req.T)
	if err != nil {
		s.failed.Add(1)
		s.writeErrorFor(w, r, err, h)
		return
	}
	s.solved.Add(1)
	writeJSON(w, http.StatusOK, response(req, res))
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	h, err := s.tenant(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: bad request body: %w", bcclap.ErrBadQuery, err))
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: "empty batch", Trace: telemetry.TraceID(r.Context())})
		return
	}
	queries := make([]bcclap.FlowQuery, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = bcclap.FlowQuery{S: q.S, T: q.T}
	}
	ctx, cancel := s.solveCtx(r)
	defer cancel()
	results, err := h.SolveBatch(ctx, queries)
	if err != nil {
		s.failed.Add(int64(len(queries)))
		s.writeErrorFor(w, r, err, h)
		return
	}
	s.solved.Add(int64(len(results)))
	out := make([]flowResponse, len(results))
	for i, res := range results {
		q := req.Queries[i]
		q.IncludeFlows = q.IncludeFlows || req.IncludeFlows
		out[i] = response(q, res)
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

func response(req flowRequest, res *bcclap.FlowResult) flowResponse {
	resp := flowResponse{
		S:           req.S,
		T:           req.T,
		Value:       res.Value,
		Cost:        res.Cost,
		PathSteps:   res.Stats.PathSteps,
		CacheHit:    res.Stats.CacheHit,
		WarmStarted: res.Stats.WarmStarted,
		Reused:      res.Stats.ReusedPreprocessing,
		WallMS:      float64(res.Stats.WallTime.Microseconds()) / 1000,
		Trace:       res.Stats.TraceID,
	}
	if req.IncludeFlows {
		resp.Flows = res.Flows
	}
	return resp
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st := s.service().ServiceStats()
	nets := make([]networkResponse, len(st.PerNetwork))
	for i, ns := range st.PerNetwork {
		nets[i] = toNetworkResponse(ns)
	}
	body := map[string]any{
		"networks":     nets,
		"tenants":      st.Networks,
		"registered":   st.Registered,
		"deregistered": st.Deregistered,
		"swaps":        st.Swaps,
		"patches":      st.Patches,
		"cache":        st.Cache,
		"requests":     s.requests.Load(),
		"solved":       s.solved.Load(),
		"failed":       s.failed.Load(),
		"uptime_ms":    time.Since(s.started).Milliseconds(),
		"timeout_ms":   s.timeout.Milliseconds(),
	}
	if st.Store != nil {
		body["store"] = st.Store
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the Prometheus text exposition: the service
// registry (solve latency plus every family synthesized from the
// service-stats snapshot) followed by the daemon's own HTTP families.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if svc := s.service(); svc != nil {
		if err := svc.WriteMetrics(w); err != nil {
			log.Printf("bcclap-serve: write metrics: %v", err)
			return
		}
	}
	if err := s.httpReg.WritePrometheus(w); err != nil {
		log.Printf("bcclap-serve: write metrics: %v", err)
	}
}

// handleHealthz is the readiness probe: 200 only when the store replay
// has completed and the daemon is not draining — exactly the window in
// which a request would be served rather than 503'd.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.service() == nil:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// writeError maps a session/service error onto its HTTP status. A 503
// (shutdown in progress) additionally advertises Retry-After sized to the
// drain budget, so load balancers back off instead of hammering a
// draining instance; 429s advertise a Retry-After hint (see
// writeErrorFor for the computed per-tenant variant).
func (s *server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	s.writeErrorFor(w, r, err, nil)
}

// writeErrorFor is writeError with tenant context: a 429 caused by the
// tenant's admission gate advertises a Retry-After computed from its
// queue depth and recent mean solve latency (⌈estimate⌉ seconds, floor
// 1) instead of a constant.
func (s *server) writeErrorFor(w http.ResponseWriter, r *http.Request, err error, h *bcclap.NetworkHandle) {
	status := statusOf(err)
	switch status {
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", s.retryAfter)
	case http.StatusTooManyRequests:
		retry := "1"
		if h != nil {
			if d := h.RetryAfter(); d > 0 {
				retry = strconv.Itoa(int(math.Ceil(d.Seconds())))
			}
		}
		w.Header().Set("Retry-After", retry)
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Trace: telemetry.TraceID(r.Context())})
}

// statusOf maps the session API's sentinel errors onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, bcclap.ErrBadQuery),
		errors.Is(err, bcclap.ErrBadSpec),
		errors.Is(err, bcclap.ErrBackendUnknown),
		errors.Is(err, bcclap.ErrBadLimits),
		errors.Is(err, bcclap.ErrBadPatch):
		return http.StatusBadRequest
	case errors.Is(err, bcclap.ErrNetworkUnknown):
		return http.StatusNotFound
	case errors.Is(err, bcclap.ErrNetworkExists):
		return http.StatusConflict
	// ErrOverloaded outranks the context sentinels: a deadline noticed
	// while queued for admission wraps both, and the useful signal for
	// the client is "back off", not "gateway timeout".
	case errors.Is(err, bcclap.ErrOverloaded),
		errors.Is(err, bcclap.ErrNetworkBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.Is(err, bcclap.ErrSolverClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// maxBodyBytes bounds every request body (413 past it). The largest body
// the daemon's tests and the benchmark send is 176 bytes; 1 MiB fits an
// arc list of some 30,000 arcs.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON value starting r's body into v, then drains
// the rest: a body over maxBodyBytes fails with *http.MaxBytesError
// however early its value ends.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, body)
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("bcclap-serve: write response: %v", err)
	}
}

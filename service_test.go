package bcclap

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// Lifecycle vocabulary: Register/Get/Names/Deregister with the sentinel
// errors of the service layer.
func TestServiceLifecycle(t *testing.T) {
	svc := NewService(WithSeed(9))
	dA, dB := testFlowNetwork(5, 41), testFlowNetwork(6, 42)

	a, err := svc.Register("tenant-a", dA)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "tenant-a" || a.Version() != 1 {
		t.Fatalf("handle %q v%d, want tenant-a v1", a.Name(), a.Version())
	}
	if _, err := svc.Register("tenant-a", dB); !errors.Is(err, ErrNetworkExists) {
		t.Fatalf("duplicate register: %v, want ErrNetworkExists", err)
	}
	if _, err := svc.Register("", dB); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := svc.Register("a/b", dB); err == nil {
		t.Fatal("name with '/' accepted")
	}
	if _, err := svc.Register("bad-backend", dB, WithBackend("nope")); !errors.Is(err, ErrBackendUnknown) {
		t.Fatalf("unknown backend: %v, want ErrBackendUnknown", err)
	}

	// The one-worker floor must survive an explicit non-positive override.
	if b, err := svc.Register("tenant-b", dB, WithPoolSize(0)); err != nil {
		t.Fatal(err)
	} else if got := b.Stats().PoolSize; got < 1 {
		t.Fatalf("WithPoolSize(0) tenant got pool size %d, want the clamped floor 1", got)
	}
	if got := svc.Names(); !reflect.DeepEqual(got, []string{"tenant-a", "tenant-b"}) {
		t.Fatalf("Names() = %v", got)
	}
	if h, err := svc.Get("tenant-b"); err != nil || h.Name() != "tenant-b" {
		t.Fatalf("Get(tenant-b) = %v, %v", h, err)
	}
	if _, err := svc.Get("nobody"); !errors.Is(err, ErrNetworkUnknown) {
		t.Fatalf("Get(nobody): %v, want ErrNetworkUnknown", err)
	}

	if err := svc.Deregister("tenant-b"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Deregister("tenant-b"); !errors.Is(err, ErrNetworkUnknown) {
		t.Fatalf("double deregister: %v, want ErrNetworkUnknown", err)
	}
	if got := svc.Names(); !reflect.DeepEqual(got, []string{"tenant-a"}) {
		t.Fatalf("Names() after deregister = %v", got)
	}

	st := svc.ServiceStats()
	if st.Networks != 1 || st.Registered != 2 || st.Deregistered != 1 {
		t.Fatalf("service stats %+v", st)
	}
}

// Acceptance: a cached answer must be bit-identical to the fresh solve —
// value, cost and flow vector — and must be marked CacheHit without
// touching the solver pool.
func TestServiceCacheBitIdentical(t *testing.T) {
	d := testFlowNetwork(5, 43)
	s, tt := 0, d.N()-1
	svc := NewService(WithSeed(9))
	h, err := svc.Register("prod", d)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := h.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.CacheHit {
		t.Fatal("first solve marked CacheHit")
	}
	before := h.Stats()
	cached, err := h.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Stats.CacheHit {
		t.Fatal("repeat solve not served from cache")
	}
	if cached.Value != fresh.Value || cached.Cost != fresh.Cost ||
		!reflect.DeepEqual(cached.Flows, fresh.Flows) {
		t.Fatalf("cached (%d, %d, %v) differs from fresh (%d, %d, %v)",
			cached.Value, cached.Cost, cached.Flows, fresh.Value, fresh.Cost, fresh.Flows)
	}
	after := h.Stats()
	if after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("cache hits %d → %d, want +1", before.Cache.Hits, after.Cache.Hits)
	}
	if after.Pool.Submitted != before.Pool.Submitted {
		t.Fatal("cache hit reached the solver pool")
	}

	// A direct solver with the same seed must agree (the cache serves
	// exactly what the session machinery certifies).
	direct, err := NewFlowSolver(d, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want, err := direct.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Value != want.Value || cached.Cost != want.Cost ||
		!reflect.DeepEqual(cached.Flows, want.Flows) {
		t.Fatal("cached result differs from a direct solver with the same seed")
	}

	// Mutating a returned flow vector must not corrupt the cache.
	cached.Flows[0] += 99
	again, err := h.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Flows, fresh.Flows) {
		t.Fatal("caller mutation leaked into the cache")
	}
}

// SolveBatch must serve hits from the cache and only fan the misses out.
func TestServiceBatchCache(t *testing.T) {
	d := testFlowNetwork(5, 44)
	s, tt := 0, d.N()-1
	svc := NewService(WithSeed(9))
	h, err := svc.Register("prod", d)
	if err != nil {
		t.Fatal(err)
	}
	warmup, err := h.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := h.SolveBatch(context.Background(), []FlowQuery{{s, tt}, {s, tt}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if !r.Stats.CacheHit {
			t.Fatalf("batch result %d not cached", i)
		}
		if r.Value != warmup.Value || r.Cost != warmup.Cost || !reflect.DeepEqual(r.Flows, warmup.Flows) {
			t.Fatalf("batch result %d differs from the certified original", i)
		}
	}
	// A malformed miss must fail the batch exactly like FlowSolver.
	if _, err := h.SolveBatch(context.Background(), []FlowQuery{{s, s}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("malformed batch: %v, want ErrBadQuery", err)
	}

	// A repeat stream: every usable pair, four times over. Only the first
	// round may reach the pool; the other three are hits, and every
	// answer is bit-identical to a fresh solver with the same seed.
	var pairs []FlowQuery
	for u := 0; u < d.N(); u++ {
		for w := 0; w < d.N(); w++ {
			if v, _, _, err := MinCostMaxFlowBaseline(d, u, w); err == nil && v > 0 {
				pairs = append(pairs, FlowQuery{u, w})
			}
		}
	}
	fresh, err := NewFlowSolver(d, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.SolveBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Register("repeats", d)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		got, err := rep.SolveBatch(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if w := want[i]; r.Value != w.Value || r.Cost != w.Cost || !reflect.DeepEqual(r.Flows, w.Flows) {
				t.Fatalf("round %d pair %v: (%d, %d, %v), fresh solver (%d, %d, %v)",
					round, pairs[i], r.Value, r.Cost, r.Flows, w.Value, w.Cost, w.Flows)
			}
		}
	}
	n := int64(len(pairs))
	if st := rep.Stats(); st.Cache.Hits != (rounds-1)*n || st.Cache.Misses != n || st.Pool.Submitted != n {
		t.Fatalf("%d pairs × %d rounds: %d hits, %d misses, %d pool submissions; want %d, %d, %d",
			n, rounds, st.Cache.Hits, st.Cache.Misses, st.Pool.Submitted, (rounds-1)*n, n, n)
	}
}

// Acceptance: Swap must bump the version, invalidate exactly its own
// tenant's entries, serve the new network afterwards, and leave the other
// tenant's cache hot.
func TestServiceSwapInvalidatesExactlyItsTenant(t *testing.T) {
	dOld, dNew := testFlowNetwork(5, 45), testFlowNetwork(6, 46)
	dOther := testFlowNetwork(5, 47)
	svc := NewService(WithSeed(9))
	a, err := svc.Register("swapped", dOld)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register("bystander", dOther)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := a.Solve(context.Background(), 0, dOld.N()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Solve(context.Background(), 0, dOther.N()-1); err != nil {
		t.Fatal(err)
	}

	// An invalid replacement must leave the tenant serving unchanged.
	if err := a.Swap(NewDigraph(0)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("swap to empty digraph: %v, want ErrBadQuery", err)
	}
	if a.Version() != 1 {
		t.Fatal("failed swap bumped the version")
	}
	still, err := a.Solve(context.Background(), 0, dOld.N()-1)
	if err != nil || !still.Stats.CacheHit {
		t.Fatalf("tenant not serving old network after failed swap: %v", err)
	}

	if err := a.Swap(dNew); err != nil {
		t.Fatal(err)
	}
	if a.Version() != 2 {
		t.Fatalf("version %d after swap, want 2", a.Version())
	}
	if inv := a.Stats().Cache.Invalidations; inv == 0 {
		t.Fatal("swap did not invalidate the tenant's cache")
	}
	newRes, err := a.Solve(context.Background(), 0, dNew.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if newRes.Stats.CacheHit {
		t.Fatal("post-swap solve served a pre-swap entry")
	}
	wantV, wantC, _, err := MinCostMaxFlowBaseline(dNew, 0, dNew.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if newRes.Value != wantV || newRes.Cost != wantC {
		t.Fatalf("post-swap (%d, %d), baseline (%d, %d)", newRes.Value, newRes.Cost, wantV, wantC)
	}

	// The bystander's cache must still be hot.
	bRes, err := b.Solve(context.Background(), 0, dOther.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if !bRes.Stats.CacheHit {
		t.Fatal("swap of one tenant flushed another tenant's cache")
	}
	if st := svc.ServiceStats(); st.Swaps != 1 {
		t.Fatalf("service swaps %d, want 1", st.Swaps)
	}
}

// Queries racing a Swap must never observe a spurious shutdown error:
// a solve that pinned the retiring solver transparently retries on the
// new one (run under -race).
func TestServiceSwapUnderLoad(t *testing.T) {
	dA, dB := testFlowNetwork(5, 52), testFlowNetwork(6, 53)
	wantAV, wantAC, _, err := MinCostMaxFlowBaseline(dA, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantBV, wantBC, _, err := MinCostMaxFlowBaseline(dB, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("hot", dA)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Terminal pair (0, 4) is valid on both networks; the
				// answer must match whichever network is being served.
				res, err := h.Solve(context.Background(), 0, 4)
				if err != nil {
					t.Errorf("solve during swap: %v", err)
					return
				}
				okA := res.Value == wantAV && res.Cost == wantAC
				okB := res.Value == wantBV && res.Cost == wantBC
				if !okA && !okB {
					t.Errorf("solve during swap: (%d, %d) matches neither network", res.Value, res.Cost)
					return
				}
			}
		}()
	}
	for i, d := range []*Digraph{dB, dA, dB} {
		if err := h.Swap(d); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if v := h.Version(); v != 4 {
		t.Fatalf("version %d after 3 swaps, want 4", v)
	}
}

// WithCacheSize(0) must disable caching for that tenant only.
func TestServiceCacheDisabled(t *testing.T) {
	d := testFlowNetwork(5, 48)
	s, tt := 0, d.N()-1
	svc := NewService(WithSeed(9))
	h, err := svc.Register("uncached", d, WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	first, err := h.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := h.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHit {
		t.Fatal("disabled cache served a hit")
	}
	// A miss runs warm: the repeat re-centers the first solve's optimum.
	if !second.Stats.WarmStarted || second.Stats.PathSteps != 0 {
		t.Fatalf("uncached repeat did not warm-start: WarmStarted %v, %d path steps",
			second.Stats.WarmStarted, second.Stats.PathSteps)
	}
	if second.Value != first.Value || second.Cost != first.Cost ||
		!reflect.DeepEqual(second.Flows, first.Flows) {
		t.Fatal("repeated uncached solves not deterministic")
	}
	if st := h.Stats(); st.Cache.Capacity != 0 || st.Cache.Hits != 0 {
		t.Fatalf("disabled cache stats %+v", st.Cache)
	}
}

// Two tenants hammered concurrently: every answer must match that
// tenant's baseline, and mixed hit/miss traffic must stay race-free
// (run under -race).
func TestServiceConcurrentTenants(t *testing.T) {
	dA, dB := testFlowNetwork(5, 49), testFlowNetwork(6, 50)
	svc := NewService(WithSeed(9), WithPoolSize(2))
	a, err := svc.Register("a", dA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register("b", dB)
	if err != nil {
		t.Fatal(err)
	}
	wantAV, wantAC, _, err := MinCostMaxFlowBaseline(dA, 0, dA.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	wantBV, wantBC, _, err := MinCostMaxFlowBaseline(dB, 0, dB.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, wantV, wantC, tt := a, wantAV, wantAC, dA.N()-1
			if g%2 == 1 {
				h, wantV, wantC, tt = b, wantBV, wantBC, dB.N()-1
			}
			for i := 0; i < 3; i++ {
				res, err := h.Solve(context.Background(), 0, tt)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Value != wantV || res.Cost != wantC {
					t.Errorf("tenant %s: (%d, %d), want (%d, %d)", h.Name(), res.Value, res.Cost, wantV, wantC)
				}
			}
		}(g)
	}
	wg.Wait()
	st := svc.ServiceStats()
	if st.Cache.Hits == 0 {
		t.Fatal("concurrent repeats produced no cache hits")
	}
	if len(st.PerNetwork) != 2 || st.PerNetwork[0].Name != "a" || st.PerNetwork[1].Name != "b" {
		t.Fatalf("per-network stats %+v", st.PerNetwork)
	}
}

// Drain/Close must retire every tenant: handles reject new queries with
// ErrSolverClosed, as do Register and Get on the service itself.
func TestServiceDrainClose(t *testing.T) {
	d := testFlowNetwork(5, 51)
	svc := NewService(WithSeed(9))
	h, err := svc.Register("x", d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Solve(context.Background(), 0, d.N()-1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Solve(context.Background(), 0, d.N()-1); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("post-drain solve: %v, want ErrSolverClosed", err)
	}
	if err := h.Swap(d); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("post-drain swap: %v, want ErrSolverClosed", err)
	}
	if _, err := svc.Register("y", d); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("post-drain register: %v, want ErrSolverClosed", err)
	}
	if _, err := svc.Get("x"); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("post-drain get: %v, want ErrSolverClosed", err)
	}
	svc.Close() // idempotent after Drain
}

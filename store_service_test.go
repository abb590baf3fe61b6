package bcclap

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// twoIslandNetwork builds two disconnected two-path islands in one
// digraph, so terminal pairs (0,2) and (3,5) have provably disjoint arc
// supports: a patch on one island can never touch a flow on the other.
//
//	island A: 0→1→2 plus shortcut 0→2   (arcs 0,1,2)
//	island B: 3→4→5 plus shortcut 3→5   (arcs 3,4,5)
func twoIslandNetwork(t *testing.T) *Digraph {
	t.Helper()
	d := NewDigraph(6)
	for _, a := range [][4]int64{
		{0, 1, 4, 1}, {1, 2, 4, 1}, {0, 2, 3, 5},
		{3, 4, 4, 1}, {4, 5, 4, 1}, {3, 5, 3, 5},
	} {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// walCompatTenant is what one tenant of a walcompat fixture must replay
// as, and the answer the version that wrote the journal gave for
// (0, n−1).
type walCompatTenant struct {
	name        string
	d           *Digraph
	version     uint64
	backend     string
	pool, cache int
	limits      Limits
	value, cost int64
}

// A data directory written by an older version must replay unchanged.
// Each fixture under testdata holds such a journal (its generate.txt has
// the snippet and the values it reported):
//
//   - walcompat, written before the shard option was removed: a tenant
//     registered with two shards, a rate limit and its queue disabled and
//     then swapped, and a tenant whose limits were set at runtime.
//   - walcompat-tolerance, written before the tolerance and retry options
//     were removed: a tenant registered with tolerance 0.1 and one retry,
//     and a tenant swapped with two retries. Replay maps both onto the
//     solver's fixed values.
//   - walcompat-gremban, written before lp's gremban backend was removed:
//     a tenant registered on it and a tenant swapped onto it.
//
// The csr-cg tenants of walcompat and walcompat-tolerance and both
// gremban tenants replay on csr-pcg, the one matrix-free backend left.
//
// Every tenant must come back at its version, backend, worker count,
// cache budget and limits, and answer exactly like a fresh solver with
// default options, and in value and cost like the version that wrote the
// journal.
func TestWALCompat(t *testing.T) {
	for _, fx := range []struct {
		dir     string
		tenants []walCompatTenant
	}{
		{"walcompat", []walCompatTenant{
			{"a", testFlowNetwork(5, 63), 2, "dense", 2, DefaultCacheSize,
				Limits{RatePerSec: 5, Burst: 2, QueueDepth: -1}, 1, 6},
			{"b", testFlowNetwork(6, 62), 1, "csr-pcg", 3, 7,
				Limits{RatePerSec: 4, MaxInFlight: 2, QueueDepth: -1}, 1, 2},
		}},
		{"walcompat-tolerance", []walCompatTenant{
			{"a", testFlowNetwork(5, 71), 1, "csr-pcg", 2, 9,
				Limits{RatePerSec: 3, Burst: 1}, 4, 15},
			{"b", testFlowNetwork(6, 73), 2, "dense", 1, DefaultCacheSize,
				Limits{MaxInFlight: 2}, 7, 32},
		}},
		{"walcompat-gremban", []walCompatTenant{
			{"a", testFlowNetwork(5, 91), 1, "csr-pcg", 2, 5, Limits{}, 2, 7},
			{"b", testFlowNetwork(6, 93), 2, "csr-pcg", 1, DefaultCacheSize,
				Limits{MaxInFlight: 3}, 4, 7},
		}},
	} {
		t.Run(fx.dir, func(t *testing.T) {
			dir := t.TempDir()
			wal, err := os.ReadFile(filepath.Join("testdata", fx.dir, "wal.bclog"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal.bclog"), wal, 0o644); err != nil {
				t.Fatal(err)
			}
			// Service defaults apply to new registrations only, never to replay.
			svc, err := OpenService(WithStore(dir), WithSeed(99), WithPoolSize(4), WithCacheSize(3))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for _, want := range fx.tenants {
				checkWALCompatTenant(t, svc, want)
			}
		})
	}
}

func checkWALCompatTenant(t *testing.T, svc *Service, want walCompatTenant) {
	t.Helper()
	h, err := svc.Get(want.name)
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Version != want.version || st.Backend != want.backend ||
		st.PoolSize != want.pool || st.Cache.Capacity != want.cache {
		t.Fatalf("%s replayed as v%d %s pool %d cache %d, want v%d %s pool %d cache %d",
			want.name, st.Version, st.Backend, st.PoolSize, st.Cache.Capacity,
			want.version, want.backend, want.pool, want.cache)
	}
	if got := h.Limits(); got != want.limits {
		t.Fatalf("%s replayed with limits %+v, want %+v", want.name, got, want.limits)
	}
	s, tt := 0, want.d.N()-1
	got, err := h.Solve(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := solveOnce(want.d, s, tt, WithSeed(5), WithBackend(want.backend))
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != fresh.Value || got.Cost != fresh.Cost || !reflect.DeepEqual(got.Flows, fresh.Flows) {
		t.Fatalf("%s: replayed answer (%d, %d, %v) differs from a fresh solve (%d, %d, %v)",
			want.name, got.Value, got.Cost, got.Flows, fresh.Value, fresh.Cost, fresh.Flows)
	}
	if got.Value != want.value || got.Cost != want.cost {
		t.Fatalf("%s: replayed answer (%d, %d), the writing version answered (%d, %d)",
			want.name, got.Value, got.Cost, want.value, want.cost)
	}
}

// A SetLimits that lands while a Swap builds its solver must survive the
// swap: the swap carries no limit options, so after each round the
// tenant's limits are the ones last set, both live and after a durable
// reopen (the swap's WAL record must carry them too).
func TestSwapKeepsConcurrentLimits(t *testing.T) {
	dir := t.TempDir()
	svc, err := OpenService(WithStore(dir), WithSnapshotEvery(-1), WithSeed(3), WithPoolSize(4))
	if err != nil {
		t.Fatal(err)
	}
	// Large enough (~5k arcs, cloned once per worker) that building the
	// swap's solver takes a while; nothing here solves.
	nets := []*Digraph{testFlowNetwork(120, 81), testFlowNetwork(120, 82)}
	h, err := svc.Register("t", nets[0])
	if err != nil {
		t.Fatal(err)
	}
	var last Limits
	for round := 0; round < 40; round++ {
		last = Limits{RatePerSec: float64(round + 1), MaxInFlight: round%3 + 1}
		started := make(chan struct{})
		swapped := make(chan error, 1)
		go func() {
			close(started)
			swapped <- h.Swap(nets[(round+1)%2])
		}()
		// Scan the swap's build window: a growing busy wait after the
		// swap starts (a sleep overshoots it), so some round lands its
		// SetLimits mid-build.
		<-started
		for spin := time.Now(); time.Since(spin) < time.Duration(round)*5*time.Microsecond; {
		}
		if err := h.SetLimits(last); err != nil {
			t.Fatal(err)
		}
		if err := <-swapped; err != nil {
			t.Fatal(err)
		}
		if got := h.Limits(); got != last {
			t.Fatalf("round %d: limits %+v after the swap, want the last set %+v", round, got, last)
		}
	}
	svc.Close()
	re, err := OpenService(WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rh, err := re.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := rh.Limits(); got != last {
		t.Fatalf("reopened with limits %+v, want the last set %+v", got, last)
	}
}

// Acceptance: a durable service restarted from its data directory serves
// every tenant at its exact pre-shutdown version — including patches —
// with bit-identical solve results and no re-registration.
func TestServiceRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	dA, dB := testFlowNetwork(5, 41), testFlowNetwork(6, 42)
	deltas := []ArcDelta{{Arc: 0, CapDelta: 2, CostDelta: 1}, {Arc: 2, CostDelta: -1}}

	svc, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Register("tenant-a", dA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("tenant-b", dB, WithBackend("dense"), WithCacheSize(32)); err != nil {
		t.Fatal(err)
	}
	if err := a.PatchArcs(deltas); err != nil {
		t.Fatal(err)
	}
	before, err := a.Solve(ctx, 0, dA.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	svc2, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Names(); !reflect.DeepEqual(got, []string{"tenant-a", "tenant-b"}) {
		t.Fatalf("recovered tenants = %v", got)
	}
	a2, err := svc2.Get("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	st := a2.Stats()
	if st.Version != 2 || st.Patches != 1 {
		t.Fatalf("tenant-a recovered at v%d with %d patches, want v2 with 1", st.Version, st.Patches)
	}
	if b2, err := svc2.Get("tenant-b"); err != nil {
		t.Fatal(err)
	} else if bst := b2.Stats(); bst.Version != 1 || bst.Backend != "dense" || bst.Cache.Capacity != 32 {
		t.Fatalf("tenant-b recovered as %+v, want v1 dense cache 32", bst)
	}
	after, err := a2.Solve(ctx, 0, dA.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.CacheHit {
		t.Fatal("cache contents are not persisted; first post-restart solve cannot be a hit")
	}
	if after.Value != before.Value || after.Cost != before.Cost || !reflect.DeepEqual(after.Flows, before.Flows) {
		t.Fatalf("post-restart solve diverged: (value %d cost %d flows %v) vs (value %d cost %d flows %v)",
			after.Value, after.Cost, after.Flows, before.Value, before.Cost, before.Flows)
	}

	// Lifecycle counters survive: both tenants count as registered, the
	// patch count is restored, and the store stats are exposed.
	ss := svc2.ServiceStats()
	if ss.Networks != 2 || ss.Registered != 2 {
		t.Fatalf("replayed service stats %+v", ss)
	}
	if ss.Store == nil || ss.Store.Tenants != 2 {
		t.Fatalf("ServiceStats.Store = %+v, want 2 tenants", ss.Store)
	}

	// The replayed tenant keeps evolving durably: patch again, restart
	// again, and the version chain continues.
	if err := a2.PatchArcs([]ArcDelta{{Arc: 1, CapDelta: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	svc3, err := OpenService(WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	a3, err := svc3.Get("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if st := a3.Stats(); st.Version != 3 || st.Patches != 2 {
		t.Fatalf("tenant-a after second restart: v%d patches %d, want v3 patches 2", st.Version, st.Patches)
	}
}

// A deregistered tenant must stay gone across a restart.
func TestServiceRestartDeregister(t *testing.T) {
	dir := t.TempDir()
	svc, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("keep", testFlowNetwork(5, 41)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("gone", testFlowNetwork(5, 42)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Deregister("gone"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc2, err := OpenService(WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Names(); !reflect.DeepEqual(got, []string{"keep"}) {
		t.Fatalf("recovered tenants = %v, want [keep]", got)
	}
}

// PatchArcs must invalidate exactly the cache entries whose flow routes
// through a modified arc: the untouched island's entry survives as a
// certified hit at the new version, the touched island's entry is
// dropped and re-solved.
func TestServicePatchSelectiveInvalidation(t *testing.T) {
	ctx := context.Background()
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("islands", twoIslandNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cache with one pair per island.
	coldA, err := h.Solve(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Solve(ctx, 3, 5); err != nil {
		t.Fatal(err)
	}
	// Reprice island B's backbone (arcs 3 and 4 carry flow for (3,5);
	// island A's flow has zero on them).
	deltas := []ArcDelta{{Arc: 3, CostDelta: 2}, {Arc: 4, CapDelta: 1}}
	if err := h.PatchArcs(deltas); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Version != 2 || st.Patches != 1 {
		t.Fatalf("post-patch stats v%d patches %d, want v2 patches 1", st.Version, st.Patches)
	}
	// The patch folds into the live sessions: each worker applies it once.
	if st.Pool.Patches != int64(st.PoolSize) {
		t.Errorf("Pool.Patches = %d, want one per worker (%d)", st.Pool.Patches, st.PoolSize)
	}

	resA, err := h.Solve(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Stats.CacheHit {
		t.Fatal("untouched island's entry was invalidated by the patch")
	}
	if resA.Value != coldA.Value || resA.Cost != coldA.Cost || !reflect.DeepEqual(resA.Flows, coldA.Flows) {
		t.Fatal("surviving cache entry is not bit-identical to the pre-patch answer")
	}
	resB, err := h.Solve(ctx, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Stats.CacheHit {
		t.Fatal("touched island's entry survived the patch")
	}
	// The touched pair re-centers from its pre-patch optimum in the
	// session that solved it: no path following, no fresh attempt, and the
	// exact answer on an independently patched network.
	if bs := resB.Stats; !bs.WarmStarted || bs.PathSteps != 0 || bs.Attempts != 0 || !bs.ReusedPreprocessing {
		t.Errorf("post-patch (3,5) resolve: warm %v, %d path steps, %d attempts, reused preprocessing %v; want a warm start with none and reuse",
			bs.WarmStarted, bs.PathSteps, bs.Attempts, bs.ReusedPreprocessing)
	}
	patched := twoIslandNetwork(t)
	if err := patched.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}
	if v, c, _, err := MinCostMaxFlowBaseline(patched, 3, 5); err != nil {
		t.Fatal(err)
	} else if resB.Value != v || resB.Cost != c {
		t.Errorf("post-patch (3,5) = (%d, %d), SSP baseline on the patched network (%d, %d)", resB.Value, resB.Cost, v, c)
	}
	if st := h.Stats(); st.Cache.Invalidations != 1 {
		t.Fatalf("Cache.Invalidations = %d, want exactly 1 (the touched pair)", st.Cache.Invalidations)
	}
}

// Malformed patches fail with ErrBadPatch before any state changes.
func TestServicePatchValidation(t *testing.T) {
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("net", twoIslandNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range [][]ArcDelta{
		nil,
		{},
		{{Arc: -1}},
		{{Arc: 6}},
		{{Arc: 0, CapDelta: -4}},
	} {
		if err := h.PatchArcs(ds); !errors.Is(err, ErrBadPatch) {
			t.Fatalf("deltas %v: err = %v, want ErrBadPatch", ds, err)
		}
	}
	if st := h.Stats(); st.Version != 1 || st.Patches != 0 {
		t.Fatalf("rejected patches mutated the tenant: %+v", st)
	}
}

// A tenant mid-mutation rejects further mutations with ErrNetworkBusy
// instead of queueing them.
func TestServiceMutationBusy(t *testing.T) {
	svc := NewService(WithSeed(9))
	defer svc.Close()
	h, err := svc.Register("net", twoIslandNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	h.mutating.Store(true)
	if err := h.PatchArcs([]ArcDelta{{Arc: 0, CapDelta: 1}}); !errors.Is(err, ErrNetworkBusy) {
		t.Fatalf("PatchArcs during mutation: %v, want ErrNetworkBusy", err)
	}
	if err := h.Swap(twoIslandNetwork(t)); !errors.Is(err, ErrNetworkBusy) {
		t.Fatalf("Swap during mutation: %v, want ErrNetworkBusy", err)
	}
	h.mutating.Store(false)
	if err := h.PatchArcs([]ArcDelta{{Arc: 0, CapDelta: 1}}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a failed Swap — solver construction or journal append —
// must leave the tenant fully intact: same version, same network, cache
// still warm.
func TestServiceSwapAtomicUnderFailure(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	svc, err := OpenService(WithStore(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h, err := svc.Register("prod", twoIslandNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := h.Solve(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Failure mode 1: the replacement solver cannot be built.
	if err := h.Swap(testFlowNetwork(5, 50), WithBackend("nope")); !errors.Is(err, ErrBackendUnknown) {
		t.Fatalf("swap with bad backend: %v, want ErrBackendUnknown", err)
	}
	// Failure mode 2: the journal append fails (log already closed).
	if err := svc.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Swap(testFlowNetwork(5, 50)); err == nil {
		t.Fatal("swap with a broken journal succeeded")
	}
	if err := h.PatchArcs([]ArcDelta{{Arc: 0, CapDelta: 1}}); err == nil {
		t.Fatal("patch with a broken journal succeeded")
	}
	if _, err := svc.Register("late", testFlowNetwork(5, 51)); err == nil {
		t.Fatal("register with a broken journal succeeded")
	}

	// The tenant still serves its original state, cache intact.
	st := h.Stats()
	if st.Version != 1 || st.Patches != 0 || st.Vertices != 6 {
		t.Fatalf("failed mutations moved the tenant: %+v", st)
	}
	res, err := h.Solve(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit || res.Value != warm.Value || res.Cost != warm.Cost {
		t.Fatalf("cache lost after failed swap: hit=%v value=%d cost=%d", res.Stats.CacheHit, res.Value, res.Cost)
	}
	if got := svc.Names(); !reflect.DeepEqual(got, []string{"prod"}) {
		t.Fatalf("failed register leaked a tenant: %v", got)
	}
}

// A patched tenant's answers must match a tenant swapped onto the
// patched network — the incremental path changes no semantics — while
// only the swap pays for new sessions: its resolve follows the central
// path from scratch.
func TestServicePatchEquivalentToSwap(t *testing.T) {
	ctx := context.Background()
	d := testFlowNetwork(6, 44)
	deltas := []ArcDelta{{Arc: 0, CapDelta: 3}, {Arc: d.M() - 1, CostDelta: 1}}
	patched := d.Clone()
	if err := patched.ApplyDeltas(deltas); err != nil {
		t.Fatal(err)
	}

	svc := NewService(WithSeed(9))
	defer svc.Close()
	var hs [2]*NetworkHandle
	for i, name := range []string{"incremental", "swapped"} {
		h, err := svc.Register(name, d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Solve(ctx, 0, d.N()-1); err != nil { // warm the sessions
			t.Fatal(err)
		}
		hs[i] = h
	}
	inc, swapped := hs[0], hs[1]
	if err := inc.PatchArcs(deltas); err != nil {
		t.Fatal(err)
	}
	if err := swapped.Swap(patched); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Solve(ctx, 0, d.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := swapped.Solve(ctx, 0, d.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Cost != want.Cost {
		t.Fatalf("patched tenant (value %d cost %d) vs swapped tenant (value %d cost %d)",
			got.Value, got.Cost, want.Value, want.Cost)
	}
	if ws := want.Stats; ws.PathSteps == 0 || ws.ReusedPreprocessing {
		t.Errorf("post-swap resolve: %d path steps, reused preprocessing %v; want a cold solve on new sessions",
			ws.PathSteps, ws.ReusedPreprocessing)
	}
}

// A Service tenant never takes the round simulator, whatever its pool
// size: Register and Swap with WithNetwork fail and journal nothing.
func TestServiceRejectsNetwork(t *testing.T) {
	svc, err := OpenService(WithStore(t.TempDir()), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	net, err := NewBCCNetwork(6)
	if err != nil {
		t.Fatal(err)
	}
	appends := func() int64 { return svc.ServiceStats().Store.Appends }

	if _, err := svc.Register("sim", twoIslandNetwork(t), WithNetwork(net)); err == nil {
		t.Fatal("Register accepted WithNetwork")
	}
	if n := appends(); n != 0 || len(svc.Names()) != 0 {
		t.Fatalf("rejected Register left %d journal records, tenants %v", n, svc.Names())
	}

	h, err := svc.Register("prod", twoIslandNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	before := appends()
	if err := h.Swap(twoIslandNetwork(t), WithNetwork(net)); err == nil {
		t.Fatal("Swap accepted WithNetwork")
	}
	if n := appends(); n != before || h.Version() != 1 {
		t.Fatalf("rejected Swap journaled %d records, version %d", n-before, h.Version())
	}
}

package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// A nil cache (capacity 0) must be a safe disabled cache: every operation
// is a no-op and Stats stays zero.
func TestDisabledCache(t *testing.T) {
	c := New[int](0)
	if c != nil {
		t.Fatal("New(0) must return the nil disabled cache")
	}
	c.Put(Key{1, 0, 1}, 42)
	if _, ok := c.Get(Key{1, 0, 1}); ok {
		t.Fatal("disabled cache returned a hit")
	}
	c.Flush()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("disabled cache stats %+v, want zero", st)
	}
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("disabled cache has size")
	}
}

// Basic hit/miss behavior and counter accounting.
func TestGetPutCounters(t *testing.T) {
	c := New[string](16)
	k := Key{Version: 3, S: 0, T: 5}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "res")
	v, ok := c.Get(k)
	if !ok || v != "res" {
		t.Fatalf("got (%q, %v), want (res, true)", v, ok)
	}
	// A different version of the same pair must miss.
	if _, ok := c.Get(Key{Version: 4, S: 0, T: 5}); ok {
		t.Fatal("version 4 hit a version 3 entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 || st.Capacity != 16 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses / 1 entry / cap 16", st)
	}
}

// The budget must hold under overflow, evicting least-recently-used
// entries, and recently touched entries must survive.
func TestLRUEviction(t *testing.T) {
	c := New[int](4)
	for i := 0; i < 4; i++ {
		c.Put(Key{Version: 1, S: i, T: 99}, i)
	}
	// Touch entry 0 so entry 1 is now the LRU victim.
	if _, ok := c.Get(Key{Version: 1, S: 0, T: 99}); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	c.Put(Key{Version: 1, S: 4, T: 99}, 4)
	if c.Len() != 4 {
		t.Fatalf("len %d, want 4 (budget held)", c.Len())
	}
	if _, ok := c.Get(Key{Version: 1, S: 1, T: 99}); ok {
		t.Fatal("LRU entry 1 survived overflow")
	}
	if _, ok := c.Get(Key{Version: 1, S: 0, T: 99}); !ok {
		t.Fatal("recently used entry 0 evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
}

// Re-putting an existing key must refresh the value without growing.
func TestPutRefresh(t *testing.T) {
	c := New[int](8)
	k := Key{Version: 1, S: 2, T: 3}
	c.Put(k, 10)
	c.Put(k, 20)
	if v, _ := c.Get(k); v != 20 {
		t.Fatalf("got %d, want refreshed 20", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
}

// Flush must drop everything, count invalidations (not evictions), and
// leave the cache usable.
func TestFlush(t *testing.T) {
	c := New[int](64)
	for i := 0; i < 10; i++ {
		c.Put(Key{Version: 1, S: i, T: i + 1}, i)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("len %d after flush", c.Len())
	}
	st := c.Stats()
	if st.Invalidations != 10 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 10 invalidations, 0 evictions", st)
	}
	c.Put(Key{Version: 2, S: 0, T: 1}, 7)
	if v, ok := c.Get(Key{Version: 2, S: 0, T: 1}); !ok || v != 7 {
		t.Fatal("cache unusable after flush")
	}
}

// The budget must bound the entry count under overflow from many versions
// and pairs, and Capacity must report it.
func TestBudget(t *testing.T) {
	const capacity = 50
	c := New[int](capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(Key{Version: uint64(i % 7), S: i, T: i * 31}, i)
	}
	if got := c.Len(); got != capacity {
		t.Fatalf("len %d, want the full budget %d", got, capacity)
	}
	if got := c.Capacity(); got != capacity {
		t.Fatalf("capacity %d, want %d", got, capacity)
	}
	if got := c.Stats().Evictions; got != 9*capacity {
		t.Fatalf("evictions %d, want %d", got, 9*capacity)
	}
}

// A budget-k cache must hold k distinct keys of one version without
// evicting any: the budget is the bound, not a per-slice share of it.
func TestBudgetHoldsDistinctKeys(t *testing.T) {
	for _, k := range []int{8, 16, 1024} {
		c := New[int](k)
		for i := 0; i < k; i++ {
			c.Put(Key{Version: 1, S: i / 32, T: i % 32}, i)
		}
		if st := c.Stats(); st.Entries != k || st.Evictions != 0 {
			t.Errorf("budget %d: %d entries, %d evictions; want %d and 0", k, st.Entries, st.Evictions, k)
		}
		for i := 0; i < k; i++ {
			if v, ok := c.Get(Key{Version: 1, S: i / 32, T: i % 32}); !ok || v != i {
				t.Errorf("budget %d: key %d lost", k, i)
				break
			}
		}
	}
}

// A budget is a bound, not a reservation: a large capacity (a daemon PUT
// body can ask for any) allocates no more up front than a small one.
func TestLargeBudgetAllocatesLazily(t *testing.T) {
	const capacity = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New[int](capacity)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("New(%d) allocated %d bytes up front", capacity, got)
	}
	if got := c.Capacity(); got != capacity {
		t.Fatalf("capacity %d, want %d", got, capacity)
	}
}

// Concurrent Get/Put/Flush/Stats from many goroutines; run under -race.
func TestConcurrentAccess(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Version: uint64(g % 3), S: i % 37, T: (i * 13) % 41}
				switch i % 5 {
				case 0:
					c.Put(k, g*1000+i)
				case 4:
					if g == 0 && i%125 == 0 {
						c.Flush()
					}
					c.Stats()
				default:
					if v, ok := c.Get(k); ok && v < 0 {
						t.Errorf("corrupt value %d", v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no gets recorded")
	}
	if st.Entries > 128 {
		t.Fatalf("budget exceeded: %d entries", st.Entries)
	}
}

// A rebuilt cache (budget change) must keep the cumulative counters
// monotonic via CarryCounters.
func TestCarryCounters(t *testing.T) {
	old := New[int](8)
	old.Put(Key{Version: 1, S: 0, T: 1}, 1)
	old.Get(Key{Version: 1, S: 0, T: 1})
	old.Get(Key{Version: 1, S: 9, T: 9})
	old.Flush()
	next := New[int](16)
	next.CarryCounters(old)
	st := next.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Invalidations != 1 {
		t.Fatalf("carried stats %+v, want 1 hit / 1 miss / 1 invalidation", st)
	}
	if st.Entries != 0 || st.Capacity != 16 {
		t.Fatalf("carried stats %+v: entries/capacity must be the new cache's", st)
	}
	// Nil on either side is a no-op.
	next.CarryCounters(nil)
	New[int](0).CarryCounters(next)
}

// Aggregation across tenant snapshots must sum every counter.
func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Evictions: 3, Invalidations: 4, Entries: 5, Capacity: 6}
	b := Stats{Hits: 10, Misses: 20, Evictions: 30, Invalidations: 40, Entries: 50, Capacity: 60}
	got := a.Add(b)
	want := Stats{Hits: 11, Misses: 22, Evictions: 33, Invalidations: 44, Entries: 55, Capacity: 66}
	if got != want {
		t.Fatalf("Add: %+v, want %+v", got, want)
	}
}

// Values are stored by reference: the same pointer comes back (the
// service layer clones flows itself; the cache must not).
func TestByReference(t *testing.T) {
	type res struct{ flows []int64 }
	c := New[*res](8)
	in := &res{flows: []int64{1, 2, 3}}
	k := Key{Version: 1, S: 0, T: 1}
	c.Put(k, in)
	out, ok := c.Get(k)
	if !ok || out != in {
		t.Fatalf("got %p, want the stored pointer %p", out, in)
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New[int](1024)
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key{Version: 1, S: i, T: i + 1}
		c.Put(keys[i], i)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(keys[i%len(keys)])
			i++
		}
	})
	b.ReportMetric(float64(c.Stats().Hits)/float64(b.N), "hit_frac")
}

func ExampleCache() {
	c := New[string](4)
	c.Put(Key{Version: 1, S: 0, T: 3}, "certified")
	v, ok := c.Get(Key{Version: 1, S: 0, T: 3})
	fmt.Println(v, ok)
	_, stale := c.Get(Key{Version: 2, S: 0, T: 3}) // swapped network: new version
	fmt.Println(stale)
	// Output:
	// certified true
	// false
}

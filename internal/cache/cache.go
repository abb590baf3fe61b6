package cache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one certified result: the owning network's monotonic
// version plus the terminal pair. Version participates in the key so that
// entries certified against a swapped-out network can never be returned
// for the new one, independent of when the owner flushes.
type Key struct {
	Version uint64
	S, T    int
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	// Hits and Misses partition the Get calls; Evictions counts entries
	// dropped by budget pressure and Invalidations entries dropped by
	// Flush. All four are cumulative.
	Hits, Misses, Evictions, Invalidations int64
	// Entries is the current entry count; Capacity the fixed budget
	// (0 for a disabled cache).
	Entries, Capacity int
}

// entry is one cached value threaded onto its shard's intrusive LRU list
// (head = most recent, tail = next eviction victim).
type entry[V any] struct {
	key        Key
	val        V
	prev, next *entry[V]
}

// shard is one independently locked slice of the key space.
type shard[V any] struct {
	mu         sync.Mutex
	items      map[Key]*entry[V]
	head, tail *entry[V]
	cap        int
}

// Cache is a sharded LRU of certified results. The zero value and the nil
// pointer are valid disabled caches: Get always misses, Put and Flush are
// no-ops, Stats is zero. Construct with New.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64

	hits, misses, evictions, invalidations atomic.Int64
}

// shardCount is the fixed shard fan-out for caches large enough to split
// (power of two so the router can mask instead of mod).
const shardCount = 8

// maxPresize caps the per-shard map size hint New allocates up front, so
// a large budget does not allocate for entries never stored.
const maxPresize = 1 << 10

// New builds a cache bounded to capacity entries in total. A capacity
// ≤ 0 returns nil — the valid disabled cache — so a single construction
// site implements the "0 disables" contract.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	n := shardCount
	if capacity < n {
		n = 1
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i] = shard[V]{items: make(map[Key]*entry[V], min(sc, maxPresize)), cap: sc}
	}
	return c
}

// shardFor routes a key with a splitmix64 finalizer over its packed
// fields — deterministic across processes, like the pool's pair router.
func (c *Cache[V]) shardFor(k Key) *shard[V] {
	x := k.Version*0x9e3779b97f4a7c15 + uint64(uint32(k.S))<<32 | uint64(uint32(k.T))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return &c.shards[x&c.mask]
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache[V]) Get(k Key) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if ok {
		s.moveToFront(e)
		v = e.val
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put inserts (or refreshes) k → v, evicting the shard's least recently
// used entry if the insert overflows the budget.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		e.val = v
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	evicted := 0
	for len(s.items) >= s.cap && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.items, victim.key)
		evicted++
	}
	e := &entry[V]{key: k, val: v}
	s.items[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// Rekey migrates the entries of version from to version to, dropping the
// ones drop selects — the selective-invalidation hook behind arc-level
// patches: a patch bumps the owner's version, and instead of flushing the
// whole tenant, the owner re-keys the entries whose certified results
// survive the mutation and drops only the invalidated ones (counted as
// invalidations, like Flush). Entries of other versions are untouched.
//
// drop is called once per matching entry, under the entry's shard lock: it
// must be fast, must not call back into the cache, and must be a pure
// function of the key and value. Survivors are re-inserted most recently
// used. No-op on a nil cache, when from == to, or with a nil drop (then
// every entry survives).
func (c *Cache[V]) Rekey(from, to uint64, drop func(Key, V) bool) {
	if c == nil || from == to {
		return
	}
	type moved struct {
		k Key
		v V
	}
	var keep []moved
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			if k.Version != from {
				continue
			}
			s.unlink(e)
			delete(s.items, k)
			if drop != nil && drop(k, e.val) {
				dropped++
			} else {
				keep = append(keep, moved{Key{Version: to, S: k.S, T: k.T}, e.val})
			}
		}
		s.mu.Unlock()
	}
	if dropped > 0 {
		c.invalidations.Add(int64(dropped))
	}
	for _, m := range keep {
		c.Put(m.k, m.v)
	}
}

// Flush drops every entry (whole-tenant invalidation on swap or
// deregistration), counting them as invalidations rather than evictions.
func (c *Cache[V]) Flush() {
	if c == nil {
		return
	}
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		dropped += len(s.items)
		s.items = make(map[Key]*entry[V])
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
	if dropped > 0 {
		c.invalidations.Add(int64(dropped))
	}
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the fixed entry budget (0 when disabled).
func (c *Cache[V]) Capacity() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// CarryCounters seeds c's cumulative counters from another cache's, so
// that a rebuilt cache (a budget change on tenant swap) keeps the
// monotonic hit/miss/eviction/invalidation history. No-op when either
// side is the nil disabled cache.
func (c *Cache[V]) CarryCounters(from *Cache[V]) {
	if c == nil || from == nil {
		return
	}
	c.hits.Store(from.hits.Load())
	c.misses.Store(from.misses.Load())
	c.evictions.Store(from.evictions.Load())
	c.invalidations.Store(from.invalidations.Load())
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		Capacity:      c.Capacity(),
	}
}

// Add accumulates another snapshot into s (service-level aggregation).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:          s.Hits + o.Hits,
		Misses:        s.Misses + o.Misses,
		Evictions:     s.Evictions + o.Evictions,
		Invalidations: s.Invalidations + o.Invalidations,
		Entries:       s.Entries + o.Entries,
		Capacity:      s.Capacity + o.Capacity,
	}
}

// pushFront links e as the most recently used entry.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the list.
func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's recency.
func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

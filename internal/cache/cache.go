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

// entry is one cached value threaded onto the cache's intrusive LRU list
// (head = most recent, tail = next eviction victim).
type entry[V any] struct {
	key        Key
	val        V
	prev, next *entry[V]
}

// Cache is an LRU of certified results behind one mutex. The nil pointer
// is a valid disabled cache: Get always misses, Put and Flush are no-ops,
// Stats is zero. Construct with New.
type Cache[V any] struct {
	mu         sync.Mutex
	items      map[Key]*entry[V]
	head, tail *entry[V]
	cap        int

	hits, misses, evictions, invalidations atomic.Int64
}

// maxPresize caps the map size hint New allocates up front, so a large
// budget does not allocate for entries never stored.
const maxPresize = 1 << 10

// New builds a cache bounded to capacity entries. A capacity ≤ 0 returns
// nil — the valid disabled cache — so a single construction site
// implements the "0 disables" contract.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[V]{items: make(map[Key]*entry[V], min(capacity, maxPresize)), cap: capacity}
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache[V]) Get(k Key) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	e, ok := c.items[k]
	if ok {
		c.moveToFront(e)
		v = e.val
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put inserts (or refreshes) k → v, evicting the least recently used
// entry if the insert overflows the budget.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.put(k, v)
	c.mu.Unlock()
}

// put is Put with c.mu held.
func (c *Cache[V]) put(k Key, v V) {
	if e, ok := c.items[k]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	for len(c.items) >= c.cap && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.items, victim.key)
		c.evictions.Add(1)
	}
	e := &entry[V]{key: k, val: v}
	c.items[k] = e
	c.pushFront(e)
}

// Rekey migrates the entries of version from to version to, dropping the
// ones drop selects — the selective-invalidation hook behind arc-level
// patches: a patch bumps the owner's version, and instead of flushing the
// whole tenant, the owner re-keys the entries whose certified results
// survive the mutation and drops only the invalidated ones (counted as
// invalidations, like Flush). Entries of other versions are untouched.
//
// drop is called once per matching entry, under the cache lock: it must
// be fast, must not call back into the cache, and must be a pure function
// of the key and value. Survivors are re-inserted most recently used.
// No-op on a nil cache, when from == to, or with a nil drop (then every
// entry survives).
func (c *Cache[V]) Rekey(from, to uint64, drop func(Key, V) bool) {
	if c == nil || from == to {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var keep []*entry[V]
	for k, e := range c.items {
		if k.Version != from {
			continue
		}
		c.unlink(e)
		delete(c.items, k)
		if drop != nil && drop(k, e.val) {
			c.invalidations.Add(1)
		} else {
			keep = append(keep, e)
		}
	}
	for _, e := range keep {
		c.put(Key{Version: to, S: e.key.S, T: e.key.T}, e.val)
	}
}

// Flush drops every entry (whole-tenant invalidation on swap or
// deregistration), counting them as invalidations rather than evictions.
func (c *Cache[V]) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.invalidations.Add(int64(len(c.items)))
	c.items = make(map[Key]*entry[V])
	c.head, c.tail = nil, nil
	c.mu.Unlock()
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Capacity returns the fixed entry budget (0 when disabled).
func (c *Cache[V]) Capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
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
func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the list.
func (c *Cache[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's recency.
func (c *Cache[V]) moveToFront(e *entry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

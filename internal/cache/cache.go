// Package cache provides the bounded caching layer shared by LOCATER's
// query-path caches (paper Section 5): a generic, sharded LRU with
// epoch-based invalidation and per-cache statistics.
//
// Every cache in the system — the coarse stage's per-device model cache, the
// caching engine's pairwise-affinity fallback cache, and the query result
// cache — is an instance of Cache. The shared implementation gives each tier
// the two properties a long-running server needs and the earlier ad-hoc maps
// lacked:
//
//   - Bounded memory. Capacity is fixed at construction and distributed over
//     the shards; inserting past a shard's capacity evicts its least
//     recently used entry. The cache can therefore never grow without bound,
//     no matter how many distinct keys a churning workload produces.
//
//   - O(1) invalidation. The cache carries a global epoch counter; every
//     entry is stamped with the epoch at insertion. Invalidate bumps the
//     epoch, instantly orphaning every cached value: lookups treat an entry
//     from an older epoch as a miss (and drop it lazily). Writers — ingest,
//     delta changes, label additions — call Invalidate after mutating the
//     underlying data, so the very next query recomputes from post-write
//     state instead of answering from stale history.
//
// Values computed from pre-invalidation state must not be cached after the
// epoch has moved on. PutAt and GetOrCompute close that race: the caller
// captures Epoch() before computing, and the insert is silently skipped when
// the epoch has changed in the meantime.
package cache

import (
	"sync"
	"sync/atomic"
)

// maxShards bounds the shard count regardless of capacity: beyond ~64
// lock-striped partitions, contention is negligible and the per-shard
// fixed cost dominates.
const maxShards = 64

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	// Size is the current number of resident entries (stale entries from
	// older epochs count until they are lazily dropped or evicted).
	Size int
	// Capacity is the maximum number of resident entries.
	Capacity int
	// Hits and Misses count lookups (Get and GetOrCompute; Peek is free).
	// A lookup that finds only a stale-epoch entry counts as a miss.
	Hits, Misses int64
	// Evictions counts entries removed to make room at capacity.
	Evictions int64
	// Invalidations counts explicit invalidation events: Invalidate calls
	// (epoch bumps) plus Deletes that removed an entry.
	Invalidations int64
	// Epoch is the current epoch (the number of Invalidate calls so far).
	Epoch uint64
	// Weight is the total weight of resident entries under the cache's
	// weigher — typically approximate heap bytes. Zero when no weigher is
	// installed (see SetWeigher). Stale-epoch entries count until dropped,
	// matching Size.
	Weight int64
}

// entry is one cached value on its shard's intrusive LRU list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	epoch      uint64
	prev, next *entry[K, V]
}

// shard is one lock-striped partition of the cache. head is the most
// recently used entry, tail the least recently used (next eviction victim).
type shard[K comparable, V any] struct {
	mu         sync.Mutex
	m          map[K]*entry[K, V]
	capacity   int
	head, tail *entry[K, V]

	// weigh, when set, prices each resident value; weight is the running
	// total over resident entries (see Cache.SetWeigher).
	weigh  func(V) int64
	weight int64

	hits, misses, evictions, deletes int64
}

// Cache is a sharded, bounded LRU cache with epoch-based invalidation. It is
// safe for concurrent use; operations on keys hashed to different shards
// never contend on a common lock.
type Cache[K comparable, V any] struct {
	hash        func(K) uint64
	epoch       atomic.Uint64
	invalidates atomic.Int64
	shards      []shard[K, V]
}

// New creates a cache holding at most capacity entries, lock-striped over a
// default shard count. hash maps keys onto shards; it must be deterministic
// and should mix well (see StringHash). capacity must be positive.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	return NewSharded[K, V](capacity, 16, hash)
}

// NewSharded is New with an explicit shard count (clamped to [1, 64] and to
// capacity, so every shard can hold at least one entry). Capacity is
// distributed across shards; the sum of shard capacities is exactly
// capacity, so Size can never exceed Capacity.
func NewSharded[K comparable, V any](capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	if hash == nil {
		panic("cache: hash function is required")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache[K, V]{hash: hash, shards: make([]shard[K, V], shards)}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < extra {
			sh.capacity++
		}
		sh.m = make(map[K]*entry[K, V], sh.capacity)
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[c.hash(k)%uint64(len(c.shards))]
}

// SetWeigher installs a per-value weight function (typically approximate
// heap bytes) and reprices any resident entries. Stats.Weight then tracks
// the total weight of resident values, maintained on every insert, update,
// eviction, and drop. Install once at construction time; the weigher must
// be deterministic for a given value.
func (c *Cache[K, V]) SetWeigher(w func(V) int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.weigh = w
		sh.weight = 0
		if w != nil {
			for _, e := range sh.m {
				sh.weight += w(e.val)
			}
		}
		sh.mu.Unlock()
	}
}

// drop removes a resident entry (stale-epoch lazy drop, Delete, eviction),
// keeping the weight total consistent. Caller holds sh.mu and accounts the
// removal in the appropriate counter.
func (sh *shard[K, V]) drop(e *entry[K, V]) {
	sh.unlink(e)
	delete(sh.m, e.key)
	if sh.weigh != nil {
		sh.weight -= sh.weigh(e.val)
	}
}

// Get returns the value cached for k in the current epoch. A stale entry
// (cached before the last Invalidate) is dropped and reported as a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[k]
	if ok && e.epoch == c.epoch.Load() {
		sh.moveToFront(e)
		sh.hits++
		return e.val, true
	}
	if ok {
		sh.drop(e)
	}
	sh.misses++
	var zero V
	return zero, false
}

// Peek reports whether k is cached in the current epoch without touching the
// LRU order or the hit/miss counters: a probe that must not count as a
// lookup (the coarse stage checks for a trained model without training one).
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[k]; ok && e.epoch == c.epoch.Load() {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put caches v for k in the current epoch, evicting the shard's least
// recently used entry if the shard is full.
func (c *Cache[K, V]) Put(k K, v V) {
	c.PutAt(k, v, c.epoch.Load())
}

// PutAt caches v for k only if the cache is still at the given epoch
// (captured with Epoch before v was computed). If an Invalidate intervened,
// v was derived from pre-invalidation state and the insert is skipped — the
// write that bumped the epoch stays visible to the next lookup.
func (c *Cache[K, V]) PutAt(k K, v V, epoch uint64) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.epoch.Load() != epoch {
		return
	}
	sh.insert(k, v, epoch)
}

// insert stores (k, v, epoch), updating in place when the key is resident.
// Caller holds sh.mu.
func (sh *shard[K, V]) insert(k K, v V, epoch uint64) {
	if e, ok := sh.m[k]; ok {
		if sh.weigh != nil {
			sh.weight += sh.weigh(v) - sh.weigh(e.val)
		}
		e.val = v
		e.epoch = epoch
		sh.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: k, val: v, epoch: epoch}
	sh.m[k] = e
	sh.pushFront(e)
	if sh.weigh != nil {
		sh.weight += sh.weigh(v)
	}
	if len(sh.m) > sh.capacity {
		sh.drop(sh.tail)
		sh.evictions++
	}
}

// GetOrCompute returns the cached value for k, computing and caching it on a
// miss. The shard lock is held across compute, so concurrent callers for the
// same key (or other keys on the same shard) run compute exactly once and
// wait for its result — the semantics the coarse stage's model cache needs
// ("train each device's model once"). compute must not touch this cache.
// A compute error is returned without caching anything, and a value computed
// across an Invalidate is returned but not cached.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() (V, error)) (V, error) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	epoch := c.epoch.Load()
	if e, ok := sh.m[k]; ok {
		if e.epoch == epoch {
			sh.moveToFront(e)
			sh.hits++
			return e.val, nil
		}
		sh.drop(e)
	}
	sh.misses++
	v, err := compute()
	if err != nil {
		return v, err
	}
	if c.epoch.Load() == epoch {
		sh.insert(k, v, epoch)
	}
	return v, nil
}

// Delete drops the entry for k, reporting whether one was resident.
func (c *Cache[K, V]) Delete(k K) bool {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[k]
	if !ok {
		return false
	}
	sh.drop(e)
	sh.deletes++
	return true
}

// Invalidate orphans every cached entry in O(1) by bumping the epoch.
// Resident stale entries are dropped lazily (on lookup or by eviction
// pressure) but can never be returned again.
func (c *Cache[K, V]) Invalidate() {
	c.epoch.Add(1)
	c.invalidates.Add(1)
}

// Range calls fn with every value cached in the current epoch, holding that
// value's shard lock; fn must not touch this cache. It neither reorders the
// LRU lists nor counts as a lookup.
func (c *Cache[K, V]) Range(fn func(V)) {
	epoch := c.epoch.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.epoch == epoch {
				fn(e.val)
			}
		}
		sh.mu.Unlock()
	}
}

// Epoch returns the current epoch, for use with PutAt.
func (c *Cache[K, V]) Epoch() uint64 { return c.epoch.Load() }

// Len returns the number of resident entries, counting not-yet-dropped
// entries from older epochs.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the total capacity across shards.
func (c *Cache[K, V]) Capacity() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].capacity
	}
	return n
}

// Stats aggregates the per-shard counters. The snapshot is not atomic across
// shards — counters keep moving under concurrent use — but every individual
// figure is consistent.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Capacity:      c.Capacity(),
		Invalidations: c.invalidates.Load(),
		Epoch:         c.epoch.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Size += len(sh.m)
		st.Weight += sh.weight
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Invalidations += sh.deletes
		sh.mu.Unlock()
	}
	return st
}

// pushFront links e as the most recently used entry. Caller holds sh.mu.
func (sh *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes e from the LRU list. Caller holds sh.mu.
func (sh *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks e most recently used. Caller holds sh.mu.
func (sh *shard[K, V]) moveToFront(e *entry[K, V]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// StringHash is a 64-bit FNV-1a hash for string-like keys, suitable as the
// hash argument of New for DeviceID-style keys.
func StringHash[K ~string](k K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return h
}

// Package cache provides the bounded caching layer shared by LOCATER's
// query-path caches (paper Section 5): a generic, sharded LRU with
// epoch-based invalidation and per-cache statistics.
//
// Every cache in the system — the coarse stage's per-device model cache, the
// caching engine's pairwise-affinity fallback cache, the query result cache
// and the store's decoded-segment cache — is an instance of Cache. The shared
// implementation gives each tier the two properties a long-running server
// needs and the earlier ad-hoc maps lacked:
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
//
// # Storage
//
// A shard keeps its entries in a slab: chunks of up to 256 nodes
// {key, val, epoch, prev, next}, where prev and next are int32 node numbers
// forming the LRU list. Chunks are allocated as the shard fills, up to its
// capacity, and never freed; a dropped node is cleared and goes on a free
// list, so once a shard is full an insert reuses its eviction victim's node
// and allocates nothing. An entry is not a heap object of its own: it costs
// sizeof(K)+sizeof(V)+16 bytes of slab (plus alignment), plus whatever its
// key and value point to.
//
// A shard finds its nodes through an open-addressed index of {tag, node+1}
// slots (8 bytes, no pointers, so the GC never scans it), allocated at
// construction with the smallest power of two ≥ 2× the shard's capacity —
// 16 to 32 bytes per unit of capacity, whether or not it is used. The slot
// position is the top bits of hash(k) times a Fibonacci constant (the same
// hash that picks the shard, re-mixed so that the bits the shard choice
// fixed do not cluster the slots); tag is the top 32 bits of that product,
// so the position of any occupied slot can be recomputed from its tag.
// Nodes do not keep their hash: an eviction rehashes the victim's key to
// find its slot, one hash per eviction for 8 bytes less per entry.
// Collisions probe linearly, and deletion shifts the following run back
// instead of leaving tombstones, so a lookup never probes past the first
// empty slot and the index is at most half full.
package cache

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxShards bounds the shard count regardless of capacity: beyond ~64
// lock-striped partitions, contention is negligible and the per-shard
// fixed cost dominates.
const maxShards = 64

// A slab chunk holds up to 256 nodes: large enough that chunk headers are
// noise, small enough that a partly filled shard wastes little. A shard's
// last chunk is cut to its capacity, so small shards waste nothing.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
)

// maxShardCapacity keeps node numbers (and node+1 in an index slot) within
// int32.
const maxShardCapacity = 1 << 30

// fibonacci is 2^64/φ, the multiplier of Fibonacci hashing.
const fibonacci = 0x9E3779B97F4A7C15

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

// node is one slab cell: a resident entry linked into its shard's LRU list,
// or a cleared cell on the free list (linked through next). -1 is nil.
type node[K comparable, V any] struct {
	key        K
	val        V
	epoch      uint64
	prev, next int32
}

// slot is one index cell: ref is the node number plus one (0 = empty), tag
// the top 32 bits of the key's mixed hash.
type slot struct {
	tag uint32
	ref int32
}

// shard is one lock-striped partition of the cache. head is the most
// recently used node, tail the least recently used (next eviction victim).
type shard[K comparable, V any] struct {
	// The fields a hit writes come first, sharing one cache line.
	mu           sync.Mutex
	head, tail   int32
	hits, misses int64

	capacity int
	n        int // resident entries

	chunks [][]node[K, V]
	used   int32 // nodes ever taken from the slab
	free   int32 // head of the free list

	index    []slot
	tagShift uint // tag >> tagShift is a slot's home position

	// weigh, when set, prices each resident value; weight is the running
	// total over resident entries (see Cache.SetWeigher).
	weigh  func(V) int64
	weight int64

	evictions, deletes int64

	// Pad the shard to 192 B, three cache lines, so that neighbouring
	// shards in Cache.shards do not share the line a hit writes
	// (BenchmarkGetHitParallel, 2 CPUs: 133 → 116 ns).
	_ [48]byte
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
// default shard count. hash maps keys onto shards and slots; it must be
// deterministic and should mix well (see StringHash). capacity must be
// positive.
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
	if capacity/shards >= maxShardCapacity {
		panic("cache: capacity too large")
	}
	c := &Cache[K, V]{hash: hash, shards: make([]shard[K, V], shards)}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < extra {
			sh.capacity++
		}
		sh.chunks = make([][]node[K, V], 0, (sh.capacity+chunkLen-1)/chunkLen)
		sh.free, sh.head, sh.tail = -1, -1, -1
		slotBits := bits.Len(uint(2*sh.capacity - 1))
		sh.index = make([]slot, 1<<slotBits)
		sh.tagShift = uint(32 - slotBits)
	}
	return c
}

// locate returns k's shard and its index tag.
func (c *Cache[K, V]) locate(k K) (*shard[K, V], uint32) {
	h := c.hash(k)
	return &c.shards[h%uint64(len(c.shards))], uint32((h * fibonacci) >> 32)
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
			for j := sh.head; j >= 0; j = sh.node(j).next {
				sh.weight += w(sh.node(j).val)
			}
		}
		sh.mu.Unlock()
	}
}

// Get returns the value cached for k in the current epoch. A stale entry
// (cached before the last Invalidate) is dropped and reported as a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	sh, tag := c.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pos, i, nd := sh.find(tag, k)
	if nd != nil {
		if nd.epoch == c.epoch.Load() {
			sh.moveToFront(i, nd)
			sh.hits++
			return nd.val, true
		}
		sh.drop(pos, i)
	}
	sh.misses++
	var zero V
	return zero, false
}

// Peek reports whether k is cached in the current epoch without touching the
// LRU order or the hit/miss counters: a probe that must not count as a
// lookup (the coarse stage checks for a trained model without training one).
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	sh, tag := c.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, _, nd := sh.find(tag, k); nd != nil && nd.epoch == c.epoch.Load() {
		return nd.val, true
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
	sh, tag := c.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.epoch.Load() != epoch {
		return
	}
	c.insert(sh, tag, k, v, epoch)
}

// GetOrCompute returns the cached value for k, computing and caching it on a
// miss. The shard lock is held across compute, so concurrent callers for the
// same key (or other keys on the same shard) run compute exactly once and
// wait for its result — the semantics the coarse stage's model cache needs
// ("train each device's model once"). compute must not touch this cache.
// A compute error is returned without caching anything, and a value computed
// across an Invalidate is returned but not cached.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() (V, error)) (V, error) {
	sh, tag := c.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	epoch := c.epoch.Load()
	if pos, i, nd := sh.find(tag, k); nd != nil {
		if nd.epoch == epoch {
			sh.moveToFront(i, nd)
			sh.hits++
			return nd.val, nil
		}
		sh.drop(pos, i)
	}
	sh.misses++
	v, err := compute()
	if err != nil {
		return v, err
	}
	if c.epoch.Load() == epoch {
		c.insert(sh, tag, k, v, epoch)
	}
	return v, nil
}

// Delete drops the entry for k, reporting whether one was resident.
func (c *Cache[K, V]) Delete(k K) bool {
	sh, tag := c.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pos, i, nd := sh.find(tag, k)
	if nd == nil {
		return false
	}
	sh.drop(pos, i)
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
		for j := sh.head; j >= 0; {
			nd := sh.node(j)
			if nd.epoch == epoch {
				fn(nd.val)
			}
			j = nd.next
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
		n += sh.n
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
		st.Size += sh.n
		st.Weight += sh.weight
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Invalidations += sh.deletes
		sh.mu.Unlock()
	}
	return st
}

// insert stores (k, v, epoch), updating in place when the key is resident.
// A full shard first evicts its least recently used entry, whose node the
// new entry then reuses. Caller holds sh.mu.
func (c *Cache[K, V]) insert(sh *shard[K, V], tag uint32, k K, v V, epoch uint64) {
	pos, i, nd := sh.find(tag, k)
	if nd != nil {
		if sh.weigh != nil {
			sh.weight += sh.weigh(v) - sh.weigh(nd.val)
		}
		nd.val = v
		nd.epoch = epoch
		sh.moveToFront(i, nd)
		return
	}
	if sh.n == sh.capacity {
		victim := sh.tail
		_, vtag := c.locate(sh.node(victim).key)
		sh.drop(sh.slotOf(vtag, victim), victim)
		sh.evictions++
		pos = sh.vacancy(tag)
	}
	i = sh.alloc()
	nd = sh.node(i)
	nd.key, nd.val, nd.epoch = k, v, epoch
	sh.index[pos] = slot{tag: tag, ref: i + 1}
	sh.pushFront(i, nd)
	sh.n++
	if sh.weigh != nil {
		sh.weight += sh.weigh(v)
	}
}

// node returns slab cell i. Caller holds sh.mu.
func (sh *shard[K, V]) node(i int32) *node[K, V] {
	return &sh.chunks[i>>chunkShift][i&(chunkLen-1)]
}

// find probes for k from its home slot. It returns k's slot, node number
// and node, or the first empty slot on the probe path, -1 and nil. Caller
// holds sh.mu.
func (sh *shard[K, V]) find(tag uint32, k K) (int, int32, *node[K, V]) {
	mask := len(sh.index) - 1
	for p := int(tag >> sh.tagShift); ; p = (p + 1) & mask {
		s := sh.index[p]
		if s.ref == 0 {
			return p, -1, nil
		}
		if s.tag == tag {
			if nd := sh.node(s.ref - 1); nd.key == k {
				return p, s.ref - 1, nd
			}
		}
	}
}

// vacancy returns the first empty slot on tag's probe path. Caller holds
// sh.mu.
func (sh *shard[K, V]) vacancy(tag uint32) int {
	mask := len(sh.index) - 1
	p := int(tag >> sh.tagShift)
	for sh.index[p].ref != 0 {
		p = (p + 1) & mask
	}
	return p
}

// slotOf returns the slot that holds node i, whose key has the given tag.
// Caller holds sh.mu.
func (sh *shard[K, V]) slotOf(tag uint32, i int32) int {
	mask := len(sh.index) - 1
	p := int(tag >> sh.tagShift)
	for sh.index[p].ref != i+1 {
		p = (p + 1) & mask
	}
	return p
}

// drop removes the entry at slot pos, node i (stale-epoch lazy drop,
// Delete, eviction), keeping the weight total consistent. Caller holds sh.mu
// and accounts the removal in the appropriate counter.
func (sh *shard[K, V]) drop(pos int, i int32) {
	nd := sh.node(i)
	sh.unindex(pos)
	sh.unlink(nd)
	sh.n--
	if sh.weigh != nil {
		sh.weight -= sh.weigh(nd.val)
	}
	*nd = node[K, V]{next: sh.free}
	sh.free = i
}

// unindex empties slot pos, shifting back each following entry of the probe
// run whose home slot lies at or before the hole, so that no lookup is cut
// short by it. Caller holds sh.mu.
func (sh *shard[K, V]) unindex(pos int) {
	mask := len(sh.index) - 1
	for p := (pos + 1) & mask; sh.index[p].ref != 0; p = (p + 1) & mask {
		home := int(sh.index[p].tag >> sh.tagShift)
		if (p-home)&mask >= (p-pos)&mask {
			sh.index[pos] = sh.index[p]
			pos = p
		}
	}
	sh.index[pos] = slot{}
}

// alloc takes a node from the free list, or the next unused one from the
// slab, adding a chunk when the last one is full. Caller holds sh.mu and
// has made room: sh.n < sh.capacity.
func (sh *shard[K, V]) alloc() int32 {
	if i := sh.free; i >= 0 {
		sh.free = sh.node(i).next
		return i
	}
	i := sh.used
	if int(i)>>chunkShift == len(sh.chunks) {
		sh.chunks = append(sh.chunks, make([]node[K, V], min(chunkLen, sh.capacity-int(i))))
	}
	sh.used++
	return i
}

// pushFront links node i, nd, as the most recently used. Caller holds
// sh.mu.
func (sh *shard[K, V]) pushFront(i int32, nd *node[K, V]) {
	nd.prev = -1
	nd.next = sh.head
	if sh.head >= 0 {
		sh.node(sh.head).prev = i
	} else {
		sh.tail = i
	}
	sh.head = i
}

// unlink removes nd from the LRU list. Caller holds sh.mu.
func (sh *shard[K, V]) unlink(nd *node[K, V]) {
	if nd.prev >= 0 {
		sh.node(nd.prev).next = nd.next
	} else {
		sh.head = nd.next
	}
	if nd.next >= 0 {
		sh.node(nd.next).prev = nd.prev
	} else {
		sh.tail = nd.prev
	}
}

// moveToFront marks node i, nd, most recently used. Caller holds sh.mu.
func (sh *shard[K, V]) moveToFront(i int32, nd *node[K, V]) {
	if sh.head != i {
		sh.unlink(nd)
		sh.pushFront(i, nd)
	}
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

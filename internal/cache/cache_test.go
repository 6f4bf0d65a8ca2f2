package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
)

func newTest(t *testing.T, capacity, shards int) *Cache[string, int] {
	t.Helper()
	return NewSharded[string, int](capacity, shards, StringHash[string])
}

func TestGetPut(t *testing.T) {
	c := newTest(t, 8, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 2) // update in place
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("after update Get(a) = %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEvictionBound is the core bounded-memory property: under arbitrary
// churn the cache never holds more than its capacity, whatever the shard
// layout, and it evicts in LRU order.
func TestEvictionBound(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const capacity = 50
			c := newTest(t, capacity, shards)
			if c.Capacity() != capacity {
				t.Fatalf("Capacity = %d, want %d", c.Capacity(), capacity)
			}
			for i := 0; i < 10*capacity; i++ {
				c.Put("k"+strconv.Itoa(i), i)
				if n := c.Len(); n > capacity {
					t.Fatalf("after %d inserts Len = %d > capacity %d", i+1, n, capacity)
				}
			}
			if c.Stats().Evictions == 0 {
				t.Fatal("no evictions under churn")
			}
		})
	}
}

func TestLRUOrder(t *testing.T) {
	c := newTest(t, 2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now most recent
	c.Put("c", 3) // evicts b
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.Peek("c"); !ok {
		t.Fatal("c missing")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(t, 8, 2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Invalidate()
	if _, ok := c.Get("a"); ok {
		t.Fatal("stale entry survived Invalidate")
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("Peek returned a stale entry")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d", st.Invalidations)
	}
	if st.Epoch != 1 {
		t.Fatalf("Epoch = %d", st.Epoch)
	}
	// Fresh inserts work in the new epoch.
	c.Put("a", 3)
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("post-invalidate Get(a) = %d, %v", v, ok)
	}
	// Range skips the stale b still resident.
	var seen []int
	c.Range(func(v int) { seen = append(seen, v) })
	if len(seen) != 1 || seen[0] != 3 {
		t.Fatalf("Range visited %v, want [3]", seen)
	}
}

// TestPutAtSkipsCrossEpochInsert is the invalidation-correctness race: a
// value computed before an Invalidate must not be cached after it.
func TestPutAtSkipsCrossEpochInsert(t *testing.T) {
	c := newTest(t, 8, 1)
	epoch := c.Epoch()
	// ... value computed from the old state here ...
	c.Invalidate()
	c.PutAt("a", 1, epoch)
	if _, ok := c.Get("a"); ok {
		t.Fatal("PutAt cached a value computed before Invalidate")
	}
}

func TestDelete(t *testing.T) {
	c := newTest(t, 8, 2)
	c.Put("a", 1)
	if !c.Delete("a") {
		t.Fatal("Delete(a) = false for a resident key")
	}
	if c.Delete("a") {
		t.Fatal("Delete(a) = true for an absent key")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted entry still resident")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1 (one effective delete)", st.Invalidations)
	}
}

func TestGetOrCompute(t *testing.T) {
	c := newTest(t, 8, 1)
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrCompute("a", compute)
		if err != nil || v != 42 {
			t.Fatalf("GetOrCompute = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetOrComputeError(t *testing.T) {
	c := newTest(t, 8, 1)
	wantErr := fmt.Errorf("boom")
	if _, err := c.GetOrCompute("a", func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compute was cached")
	}
	// A later successful compute fills the entry.
	if v, err := c.GetOrCompute("a", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

// TestGetOrComputeCrossEpoch: an Invalidate that lands while compute runs
// must keep the computed value out of the cache (it reflects the old state),
// while still returning it to the caller.
func TestGetOrComputeCrossEpoch(t *testing.T) {
	c := newTest(t, 8, 1)
	v, err := c.GetOrCompute("a", func() (int, error) {
		c.Invalidate() // stands in for a concurrent writer on another shard
		return 9, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("GetOrCompute = %d, %v", v, err)
	}
	if _, ok := c.Peek("a"); ok {
		t.Fatal("value computed across an epoch bump was cached")
	}
}

func TestStatsCountersAndSize(t *testing.T) {
	c := newTest(t, 4, 1)
	for i := 0; i < 8; i++ {
		c.Put(strconv.Itoa(i), i)
	}
	st := c.Stats()
	if st.Size != 4 || st.Capacity != 4 || st.Evictions != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCapacityDistribution(t *testing.T) {
	// 10 over 3 shards: shard capacities must sum to exactly 10.
	c := NewSharded[string, int](10, 3, StringHash[string])
	if c.Capacity() != 10 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
	// More shards than capacity: clamped so every shard holds ≥ 1.
	c2 := NewSharded[string, int](2, 16, StringHash[string])
	if c2.Capacity() != 2 {
		t.Fatalf("clamped Capacity = %d", c2.Capacity())
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity": func() { New[string, int](0, StringHash[string]) },
		"nil hash":      func() { New[string, int](4, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestConcurrent hammers every operation from many goroutines; run with
// -race. The final size must respect the bound.
func TestConcurrent(t *testing.T) {
	const capacity = 128
	c := newTest(t, capacity, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := strconv.Itoa((g*31 + i) % 500)
				switch i % 5 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				case 2:
					c.GetOrCompute(k, func() (int, error) { return i, nil })
				case 3:
					c.Delete(k)
				case 4:
					if i%100 == 0 {
						c.Invalidate()
					} else {
						c.Peek(k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d > capacity %d after concurrent churn", n, capacity)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// refCache is the map-plus-list LRU that Cache replaced, kept as the oracle
// for TestCacheMatchesReference: the same shard choice and per-shard
// capacities, one heap entry per key found through a map, and the same
// epoch, eviction and counter rules. Every tier evicts by these rules, so
// Cache must reproduce them exactly for cached answers to stay bit-identical.
type refCache[K comparable, V any] struct {
	hash        func(K) uint64
	epoch       uint64
	invalidates int64
	shards      []refShard[K, V]
}

type refEntry[K comparable, V any] struct {
	key        K
	val        V
	epoch      uint64
	prev, next *refEntry[K, V]
}

type refShard[K comparable, V any] struct {
	m                                map[K]*refEntry[K, V]
	capacity                         int
	head, tail                       *refEntry[K, V]
	weigh                            func(V) int64
	weight                           int64
	hits, misses, evictions, deletes int64
}

func newRefCache[K comparable, V any](capacity, shards int, hash func(K) uint64) *refCache[K, V] {
	shards = max(1, min(shards, maxShards, capacity))
	c := &refCache[K, V]{hash: hash, shards: make([]refShard[K, V], shards)}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < extra {
			sh.capacity++
		}
		sh.m = make(map[K]*refEntry[K, V])
	}
	return c
}

func (c *refCache[K, V]) shardFor(k K) *refShard[K, V] {
	return &c.shards[c.hash(k)%uint64(len(c.shards))]
}

func (c *refCache[K, V]) SetWeigher(w func(V) int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.weigh, sh.weight = w, 0
		if w != nil {
			for _, e := range sh.m {
				sh.weight += w(e.val)
			}
		}
	}
}

func (sh *refShard[K, V]) drop(e *refEntry[K, V]) {
	sh.unlink(e)
	delete(sh.m, e.key)
	if sh.weigh != nil {
		sh.weight -= sh.weigh(e.val)
	}
}

func (c *refCache[K, V]) Get(k K) (V, bool) {
	sh := c.shardFor(k)
	e, ok := sh.m[k]
	if ok && e.epoch == c.epoch {
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

func (c *refCache[K, V]) Peek(k K) (V, bool) {
	if e, ok := c.shardFor(k).m[k]; ok && e.epoch == c.epoch {
		return e.val, true
	}
	var zero V
	return zero, false
}

func (c *refCache[K, V]) PutAt(k K, v V, epoch uint64) {
	if c.epoch == epoch {
		c.shardFor(k).insert(k, v, epoch)
	}
}

func (sh *refShard[K, V]) insert(k K, v V, epoch uint64) {
	if e, ok := sh.m[k]; ok {
		if sh.weigh != nil {
			sh.weight += sh.weigh(v) - sh.weigh(e.val)
		}
		e.val, e.epoch = v, epoch
		sh.moveToFront(e)
		return
	}
	e := &refEntry[K, V]{key: k, val: v, epoch: epoch}
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

func (c *refCache[K, V]) GetOrCompute(k K, compute func() (V, error)) (V, error) {
	sh := c.shardFor(k)
	epoch := c.epoch
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
	if c.epoch == epoch {
		sh.insert(k, v, epoch)
	}
	return v, nil
}

func (c *refCache[K, V]) Delete(k K) bool {
	sh := c.shardFor(k)
	e, ok := sh.m[k]
	if !ok {
		return false
	}
	sh.drop(e)
	sh.deletes++
	return true
}

func (c *refCache[K, V]) Invalidate() {
	c.epoch++
	c.invalidates++
}

func (c *refCache[K, V]) Range(fn func(V)) {
	for i := range c.shards {
		for _, e := range c.shards[i].m {
			if e.epoch == c.epoch {
				fn(e.val)
			}
		}
	}
}

func (c *refCache[K, V]) Stats() Stats {
	st := Stats{Invalidations: c.invalidates, Epoch: c.epoch}
	for i := range c.shards {
		sh := &c.shards[i]
		st.Capacity += sh.capacity
		st.Size += len(sh.m)
		st.Weight += sh.weight
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Invalidations += sh.deletes
	}
	return st
}

func (sh *refShard[K, V]) pushFront(e *refEntry[K, V]) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *refShard[K, V]) unlink(e *refEntry[K, V]) {
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

func (sh *refShard[K, V]) moveToFront(e *refEntry[K, V]) {
	if sh.head != e {
		sh.unlink(e)
		sh.pushFront(e)
	}
}

// matchReference replays the op list encoded in ops against a Cache and
// the refCache oracle built with the same capacity and shard count, and
// fails at the first step where a return value, Len, Stats, or the set of
// values Range visits differs. Each op is two bytes: an opcode and an
// argument that picks the key (over 3× capacity keys, so the cache churns)
// and the value.
func matchReference(t *testing.T, capacity, shards int, ops []byte) {
	t.Helper()
	keys := make([]string, 3*capacity+1)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	c := NewSharded[string, int](capacity, shards, StringHash[string])
	ref := newRefCache[string, int](capacity, shards, StringHash[string])
	weigh := func(v int) int64 { return int64(v%7 + 1) }
	errCompute := fmt.Errorf("compute failed")
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step]%11, int(ops[step+1])
		k, v := keys[arg%len(keys)], arg
		var got, want string
		switch op {
		case 0:
			gv, gok := c.Get(k)
			wv, wok := ref.Get(k)
			got, want = fmt.Sprint("Get ", gv, gok), fmt.Sprint("Get ", wv, wok)
		case 1:
			gv, gok := c.Peek(k)
			wv, wok := ref.Peek(k)
			got, want = fmt.Sprint("Peek ", gv, gok), fmt.Sprint("Peek ", wv, wok)
		case 2:
			c.Put(k, v)
			ref.PutAt(k, v, ref.epoch)
		case 3:
			// A stale epoch: one behind the current, or ahead at epoch 0.
			stale := c.Epoch() - 1
			if c.Epoch() == 0 {
				stale = 1
			}
			c.PutAt(k, v, stale)
			ref.PutAt(k, v, stale)
		case 4, 5, 6:
			compute := func(invalidate func()) func() (int, error) {
				return func() (int, error) {
					switch op {
					case 5:
						return -1, errCompute
					case 6:
						invalidate()
					}
					return v, nil
				}
			}
			gv, gerr := c.GetOrCompute(k, compute(c.Invalidate))
			wv, werr := ref.GetOrCompute(k, compute(ref.Invalidate))
			got, want = fmt.Sprint("GetOrCompute ", gv, gerr), fmt.Sprint("GetOrCompute ", wv, werr)
		case 7:
			got, want = fmt.Sprint("Delete ", c.Delete(k)), fmt.Sprint("Delete ", ref.Delete(k))
		case 8:
			c.Invalidate()
			ref.Invalidate()
		case 9:
			var gs, ws []int
			c.Range(func(v int) { gs = append(gs, v) })
			ref.Range(func(v int) { ws = append(ws, v) })
			sort.Ints(gs)
			sort.Ints(ws)
			got, want = fmt.Sprint("Range ", gs), fmt.Sprint("Range ", ws)
		case 10:
			w := weigh
			if arg%2 == 1 {
				w = nil
			}
			c.SetWeigher(w)
			ref.SetWeigher(w)
		}
		if got != want {
			t.Fatalf("step %d (op %d, key %s): got %s, oracle %s", step/2, op, k, got, want)
		}
		if gs, ws := c.Stats(), ref.Stats(); gs != ws || c.Len() != ws.Size || c.Epoch() != ws.Epoch {
			t.Fatalf("step %d (op %d, key %s): Stats %+v Len %d, oracle %+v", step/2, op, k, gs, c.Len(), ws)
		}
	}
}

// TestCacheMatchesReference is the "same evictions" gate: over random op
// sequences, for several shard layouts and small capacities (so evictions,
// stale drops and node reuse happen constantly), Cache behaves exactly like
// the refCache oracle at every step.
func TestCacheMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		for _, capacity := range []int{1, 2, 5, 8, 13, 40} {
			t.Run(fmt.Sprintf("shards=%d/cap=%d", shards, capacity), func(t *testing.T) {
				for seed := int64(0); seed < 4; seed++ {
					rng := rand.New(rand.NewSource(seed))
					ops := make([]byte, 6000)
					rng.Read(ops)
					matchReference(t, capacity, shards, ops)
				}
			})
		}
	}
}

// FuzzCacheMatchesReference runs matchReference on mutated op lists: the
// first byte picks the shard count, the second the capacity.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 1, 0, 0})
	f.Add([]byte{1, 4, 2, 3, 2, 4, 2, 5, 0, 3, 8, 0, 3, 3, 9, 0, 7, 4, 6, 1})
	f.Add([]byte{2, 7, 10, 0, 2, 1, 2, 2, 4, 9, 5, 9, 6, 10, 9, 0, 10, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shards := []int{1, 3, 16}[int(data[0])%3]
		capacity := 1 + int(data[1])%16
		matchReference(t, capacity, shards, data[2:])
	})
}

//go:build !race

package cache

import (
	"runtime"
	"strconv"
	"testing"
)

// The allocation and footprint gates run without -race, which instruments
// allocations.

// TestCacheAllocs: the steady-state paths allocate nothing — a Get hit, a
// Peek, a Put that updates a resident key, and a Put of a new key into a
// full shard, which reuses its eviction victim's node.
func TestCacheAllocs(t *testing.T) {
	const capacity = 64
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	c := NewSharded[string, int](capacity, 1, StringHash[string])
	for _, k := range keys[:capacity] {
		c.Put(k, 1)
	}
	i := capacity - 1 // every key after the resident ones is a miss
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"get hit", func() { c.Get(keys[capacity-1]) }},
		{"peek", func() { c.Peek(keys[0]) }},
		{"put in place", func() { c.Put(keys[capacity-1], 2) }},
		{"put into a full shard", func() { i++; c.Put(keys[i%len(keys)], i) }},
	} {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want the shard full at %d", c.Len(), capacity)
	}
}

// footprintKey and footprintVal have the shape of the affinity fallback
// cache's entries: two device IDs and an hour bucket, mapped to a 24-byte
// value.
type footprintKey struct {
	a, b   string
	bucket int64
}

type footprintVal struct {
	val        float64
	seqA, seqB uint64
}

func hashFootprintKey(k footprintKey) uint64 {
	h := StringHash(k.a)*31 ^ StringHash(k.b)
	return (h ^ uint64(k.bucket)) * 1099511628211
}

// liveHeap returns the heap bytes in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCacheAllocsFootprint pins what a 64Ki-entry cache of affinity-shaped
// entries costs on the heap: the index alone when empty, the index plus one
// slab node per entry when full. The keys' strings come from a shared pool,
// as device IDs do, so they are not counted.
func TestCacheAllocsFootprint(t *testing.T) {
	const (
		capacity = 64 * 1024
		maxEmpty = 1.5e6
		maxFull  = 8e6
	)
	ids := make([]string, 512)
	for i := range ids {
		ids[i] = "d" + strconv.Itoa(100000+i)
	}
	base := liveHeap()
	c := New[footprintKey, footprintVal](capacity, hashFootprintKey)
	empty := liveHeap() - base
	for n := 0; n < 4*capacity; n++ {
		k := footprintKey{a: ids[n%len(ids)], b: ids[(n/len(ids))%len(ids)], bucket: int64(n)}
		c.Put(k, footprintVal{val: float64(n)})
	}
	full := liveHeap() - base
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want the cache full at %d", c.Len(), capacity)
	}
	runtime.KeepAlive(c)
	t.Logf("64Ki-entry cache: %.2f MB empty, %.2f MB full", float64(empty)/1e6, float64(full)/1e6)
	if empty > maxEmpty {
		t.Errorf("empty cache holds %d B, want ≤ %d", empty, uint64(maxEmpty))
	}
	if full > maxFull {
		t.Errorf("full cache holds %d B, want ≤ %d", full, uint64(maxFull))
	}
}

package cache

import (
	"fmt"
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

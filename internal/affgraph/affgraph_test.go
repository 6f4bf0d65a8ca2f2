package affgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"locater/internal/event"
)

var t0 = time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)

func TestMergeAndWeight(t *testing.T) {
	g := New(Options{})
	g.Merge([]Edge{{From: "a", To: "b", Weight: 0.4}}, t0)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Same-time query returns the stored weight.
	if w := g.Weight("a", "b", t0); math.Abs(w-0.4) > 1e-9 {
		t.Errorf("weight = %v, want 0.4", w)
	}
	// Symmetric lookup.
	if w := g.Weight("b", "a", t0); math.Abs(w-0.4) > 1e-9 {
		t.Errorf("reverse weight = %v", w)
	}
	// Missing edge → 0.
	if w := g.Weight("a", "z", t0); w != 0 {
		t.Errorf("missing edge weight = %v", w)
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	g := New(Options{})
	g.Merge([]Edge{{From: "a", To: "a", Weight: 0.9}}, t0)
	if g.NumEdges() != 0 {
		t.Error("self edge should be ignored")
	}
}

func TestTimeWeightedCollapse(t *testing.T) {
	g := New(Options{Sigma: time.Hour})
	// Observation near the query dominates over a distant one.
	g.Merge([]Edge{{From: "a", To: "b", Weight: 1.0}}, t0)
	g.Merge([]Edge{{From: "a", To: "b", Weight: 0.0}}, t0.Add(10*time.Hour))
	wNear := g.Weight("a", "b", t0)
	if wNear < 0.9 {
		t.Errorf("near-time collapse = %v, want ≈1.0", wNear)
	}
	wFar := g.Weight("a", "b", t0.Add(10*time.Hour))
	if wFar > 0.1 {
		t.Errorf("far-time collapse = %v, want ≈0.0", wFar)
	}
	// Midpoint blends both.
	wMid := g.Weight("a", "b", t0.Add(5*time.Hour))
	if wMid < 0.2 || wMid > 0.8 {
		t.Errorf("mid collapse = %v, want blended", wMid)
	}
}

func TestStaleObservationsFallBackToAverage(t *testing.T) {
	g := New(Options{Sigma: time.Minute})
	g.Merge([]Edge{{From: "a", To: "b", Weight: 0.2}}, t0)
	g.Merge([]Edge{{From: "a", To: "b", Weight: 0.6}}, t0.Add(time.Minute))
	// Query a year away: kernel underflows; plain average 0.4 expected.
	w := g.Weight("a", "b", t0.AddDate(1, 0, 0))
	if math.Abs(w-0.4) > 1e-9 {
		t.Errorf("stale fallback = %v, want 0.4", w)
	}
}

func TestMaxObservationsBound(t *testing.T) {
	g := New(Options{MaxObservationsPerEdge: 3})
	for i := 0; i < 10; i++ {
		g.Merge([]Edge{{From: "a", To: "b", Weight: float64(i) / 10}}, t0.Add(time.Duration(i)*time.Minute))
	}
	obs := g.Observations("a", "b")
	if len(obs) != 3 {
		t.Fatalf("observations = %d, want 3 (bounded)", len(obs))
	}
	// Oldest dropped: remaining are the last three.
	if obs[0].Weight != 0.7 {
		t.Errorf("oldest remaining = %v, want 0.7", obs[0].Weight)
	}
}

func TestOrderNeighbors(t *testing.T) {
	g := New(Options{})
	g.Merge([]Edge{
		{From: "q", To: "low", Weight: 0.1},
		{From: "q", To: "high", Weight: 0.9},
		{From: "q", To: "mid", Weight: 0.5},
	}, t0)
	got := g.OrderNeighbors("q", []event.DeviceID{"low", "unknown1", "mid", "high", "unknown2"}, t0)
	want := []event.DeviceID{"high", "mid", "low", "unknown1", "unknown2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestNumDevices(t *testing.T) {
	g := New(Options{})
	g.Merge([]Edge{
		{From: "a", To: "b", Weight: 0.1},
		{From: "b", To: "c", Weight: 0.2},
	}, t0)
	if got := g.NumDevices(); got != 3 {
		t.Errorf("devices = %d, want 3", got)
	}
}

func TestConcurrentGraphAccess(t *testing.T) {
	g := New(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a := event.DeviceID(fmt.Sprintf("d%d", w))
				b := event.DeviceID(fmt.Sprintf("d%d", (w+1)%4))
				g.Merge([]Edge{{From: a, To: b, Weight: 0.5}}, t0.Add(time.Duration(i)*time.Second))
				g.Weight(a, b, t0)
				g.OrderNeighbors(a, []event.DeviceID{b}, t0)
			}
		}(w)
	}
	wg.Wait()
	if g.NumEdges() == 0 {
		t.Error("no edges after concurrent merges")
	}
}

// fixedFallback counts fallback computations.
type fixedFallback struct {
	mu    sync.Mutex
	calls int
	value float64
}

func (f *fixedFallback) PairAffinity(a, b event.DeviceID, _ time.Time) float64 {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return f.value
}

func TestCachedAffinityGraphHit(t *testing.T) {
	g := New(Options{})
	g.Merge([]Edge{{From: "a", To: "b", Weight: 0.33}}, t0)
	fb := &fixedFallback{value: 0.9}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	if got := c.PairAffinity("a", "b", t0); math.Abs(got-0.33) > 1e-9 {
		t.Errorf("graph-backed affinity = %v", got)
	}
	if fb.calls != 0 {
		t.Errorf("fallback called %d times despite graph hit", fb.calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %d/%d", st.Hits, st.Misses)
	}
}

func TestCachedAffinityFallbackAndBucket(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.7}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	// Miss → fallback; repeat within the same bucket → cached.
	if got := c.PairAffinity("x", "y", t0); got != 0.7 {
		t.Errorf("fallback affinity = %v", got)
	}
	c.PairAffinity("x", "y", t0.Add(time.Minute))
	if fb.calls != 1 {
		t.Errorf("fallback called %d times, want 1 (bucketed)", fb.calls)
	}
	// Different bucket → recompute.
	c.PairAffinity("x", "y", t0.Add(2*time.Hour))
	if fb.calls != 2 {
		t.Errorf("fallback called %d times, want 2", fb.calls)
	}
}

// TestCachedAffinityBucketWidth: a bucket under a second, or with a
// fractional second, keeps its exact width on both entry points, and whole-
// hour keys and bucket ends are the Unix-second ones.
func TestCachedAffinityBucketWidth(t *testing.T) {
	for _, bucket := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond} {
		fb := &fixedFallback{value: 0.7}
		c := NewCachedAffinity(New(Options{}), fb, bucket, 0)
		// t0 is a whole hour, so it starts a bucket of either width.
		c.PairAffinity("x", "y", t0)
		c.BatchPairAffinity("x", []event.DeviceID{"y"}, t0.Add(bucket-time.Millisecond), nil)
		if fb.calls != 1 {
			t.Errorf("bucket %v: fallback ran %d times inside one bucket, want 1", bucket, fb.calls)
		}
		c.PairAffinity("x", "y", t0.Add(bucket))
		if fb.calls != 2 {
			t.Errorf("bucket %v: fallback ran %d times across the split, want 2", bucket, fb.calls)
		}
	}

	c := NewCachedAffinity(New(Options{}), &fixedFallback{}, time.Hour, 0)
	for _, ref := range []time.Time{t0, t0.Add(59*time.Minute + 59*time.Second + 999*time.Millisecond), t0.Add(time.Hour), time.Unix(0, 0)} {
		want := ref.Unix() / 3600
		if got := c.bucketOf(ref); got != want {
			t.Errorf("1h bucket of %v = %d, want %d", ref, got, want)
		}
		if got, want := c.bucketEndNanos(want), (want+1)*3600*int64(time.Second); got != want {
			t.Errorf("1h bucket end = %d, want %d", got, want)
		}
	}
}

// Property: collapsed weight is always within [min, max] of the stored
// observations (or their plain average when stale).
func TestCollapseBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(Options{Sigma: time.Duration(1+rng.Intn(120)) * time.Minute})
		n := 1 + rng.Intn(10)
		lo, hi := 1.0, 0.0
		for i := 0; i < n; i++ {
			w := rng.Float64()
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
			g.Merge([]Edge{{From: "a", To: "b", Weight: w}}, t0.Add(time.Duration(rng.Intn(86400))*time.Second))
		}
		tq := t0.Add(time.Duration(rng.Intn(86400)) * time.Second)
		w := g.Weight("a", "b", tq)
		return w >= lo-1e-9 && w <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: OrderNeighbors is a permutation of its input.
func TestOrderNeighborsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(Options{})
		var devs []event.DeviceID
		for i := 0; i < 1+rng.Intn(12); i++ {
			d := event.DeviceID(fmt.Sprintf("d%d", i))
			devs = append(devs, d)
			if rng.Intn(2) == 0 {
				g.Merge([]Edge{{From: "q", To: d, Weight: rng.Float64()}}, t0)
			}
		}
		got := g.OrderNeighbors("q", devs, t0)
		if len(got) != len(devs) {
			return false
		}
		seen := map[event.DeviceID]int{}
		for _, d := range got {
			seen[d]++
		}
		for _, d := range devs {
			if seen[d] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// blockingFallback lets a test hold a fallback sweep open while other calls
// and writes run beside it.
type blockingFallback struct {
	entered chan struct{} // receives one value per fallback entry
	release chan struct{} // each entry blocks until it can receive here
	mu      sync.Mutex
	calls   int
	doPanic bool
}

func (f *blockingFallback) PairAffinity(a, b event.DeviceID, _ time.Time) float64 {
	f.mu.Lock()
	f.calls++
	panicNow := f.doPanic
	f.doPanic = false // only the first computation panics
	f.mu.Unlock()
	f.entered <- struct{}{}
	<-f.release
	if panicNow {
		panic("fallback exploded")
	}
	return 0.42
}

// TestCachedAffinityLeaderPanicRetries: a fallback that panics caches
// nothing, and a concurrent miss for the same key computes its own value
// instead of consuming an uncomputed zero.
func TestCachedAffinityLeaderPanicRetries(t *testing.T) {
	g := New(Options{})
	fb := &blockingFallback{entered: make(chan struct{}, 8), release: make(chan struct{}), doPanic: true}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	leaderPanicked := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader did not panic")
			}
			close(leaderPanicked)
		}()
		c.PairAffinity("x", "y", t0)
	}()
	<-fb.entered // leader inside the fallback

	var got float64
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		got = c.PairAffinity("x", "y", t0) // misses too: runs its own sweep
	}()
	<-fb.entered      // the waiter's own computation
	close(fb.release) // leader panics; the waiter's sweep completes
	<-leaderPanicked
	<-waiterDone

	if got != 0.42 {
		t.Errorf("waiter got %v after leader panic, want recomputed 0.42", got)
	}
	if fb.calls != 2 {
		t.Errorf("fallback ran %d times, want 2 (panicked leader + waiter)", fb.calls)
	}
	// The waiter's value is cached; the panicked sweep left nothing behind.
	if got := c.PairAffinity("x", "y", t0); got != 0.42 || fb.calls != 2 {
		t.Errorf("cached lookup = %v after %d fallback runs, want 0.42 after 2", got, fb.calls)
	}
}

// TestCachedAffinityInvalidate: an epoch bump must force the next lookup
// back to the fallback instead of serving the pre-invalidation answer.
func TestCachedAffinityInvalidate(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.7}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	c.PairAffinity("x", "y", t0)
	c.PairAffinity("x", "y", t0)
	if fb.calls != 1 {
		t.Fatalf("fallback ran %d times before invalidation", fb.calls)
	}
	c.Invalidate()
	c.PairAffinity("x", "y", t0)
	if fb.calls != 2 {
		t.Errorf("fallback ran %d times, want 2 (recompute after Invalidate)", fb.calls)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d", st.Invalidations)
	}
}

// TestCachedAffinityBounded: the fallback cache never exceeds its capacity
// no matter how many (pair, bucket) keys churn through it.
func TestCachedAffinityBounded(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.5}
	const capacity = 32
	c := NewCachedAffinity(g, fb, time.Hour, capacity)

	for i := 0; i < 10*capacity; i++ {
		a := event.DeviceID(fmt.Sprintf("dev-%d", i))
		c.PairAffinity(a, "hub", t0.Add(time.Duration(i)*2*time.Hour))
		if st := c.Stats(); st.Size > st.Capacity {
			t.Fatalf("size %d exceeds capacity %d", st.Size, st.Capacity)
		}
	}
	st := c.Stats()
	if st.Capacity != capacity {
		t.Errorf("capacity = %d, want %d", st.Capacity, capacity)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under churn")
	}
}

// TestCachedAffinityWaiterAfterInvalidateRetries: a query that misses while
// a pre-write fallback sweep is still running must not consume that sweep's
// value — it began after the write, so it computes from post-write history.
func TestCachedAffinityWaiterAfterInvalidateRetries(t *testing.T) {
	g := New(Options{})
	fb := &blockingFallback{entered: make(chan struct{}, 8), release: make(chan struct{})}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.PairAffinity("x", "y", t0) // leader, computing under the old epoch
	}()
	<-fb.entered

	// The write: invalidate while the leader is still inside the fallback.
	c.Invalidate()

	// A post-write query misses beside the in-flight sweep.
	var got float64
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		got = c.PairAffinity("x", "y", t0)
	}()
	<-fb.entered      // the waiter's own post-invalidate computation
	close(fb.release) // leader finishes with the stale value
	<-leaderDone
	<-waiterDone

	if got != 0.42 {
		t.Errorf("post-invalidate waiter got %v", got)
	}
	if fb.calls != 2 {
		t.Errorf("fallback ran %d times, want 2 (stale leader + post-write recompute)", fb.calls)
	}
}

// batchCountingFallback implements both the per-pair and batch interfaces,
// counting how often each is consulted.
type batchCountingFallback struct {
	mu         sync.Mutex
	pairCalls  int
	batchCalls int
	batchPairs int
}

func (f *batchCountingFallback) val(a, b event.DeviceID) float64 {
	return float64(len(a)+len(b)) / 100
}

func (f *batchCountingFallback) PairAffinity(a, b event.DeviceID, _ time.Time) float64 {
	f.mu.Lock()
	f.pairCalls++
	f.mu.Unlock()
	return f.val(a, b)
}

func (f *batchCountingFallback) BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, _ time.Time, out []float64) []float64 {
	f.mu.Lock()
	f.batchCalls++
	f.batchPairs += len(cands)
	f.mu.Unlock()
	if cap(out) < len(cands) {
		out = make([]float64, len(cands))
	}
	out = out[:len(cands)]
	for i, c := range cands {
		out[i] = f.val(d, c)
	}
	return out
}

// TestBatchPairAffinityMatchesSingle: the batch path must return exactly the
// per-pair answers, route all misses through ONE batched fallback sweep, and
// serve repeats from the cache without touching the fallback again.
func TestBatchPairAffinityMatchesSingle(t *testing.T) {
	g := New(Options{})
	fb := &batchCountingFallback{}
	c := NewCachedAffinity(g, fb, time.Hour, 0)
	ref := time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)
	cands := []event.DeviceID{"bb", "ccc", "dddd", "eeeee"}

	got := c.BatchPairAffinity("a", cands, ref, nil)
	if fb.batchCalls != 1 || fb.batchPairs != len(cands) {
		t.Fatalf("fallback sweeps = %d (%d pairs), want 1 (%d)", fb.batchCalls, fb.batchPairs, len(cands))
	}
	for i, cand := range cands {
		if want := fb.val("a", cand); got[i] != want {
			t.Errorf("batch[%d] = %v, want %v", i, got[i], want)
		}
	}
	// Repeat: all cached, no new fallback traffic, same answers through the
	// single-pair entry point too.
	again := c.BatchPairAffinity("a", cands, ref, nil)
	for i := range cands {
		if again[i] != got[i] {
			t.Errorf("cached batch[%d] = %v, want %v", i, again[i], got[i])
		}
		if v := c.PairAffinity("a", cands[i], ref); v != got[i] {
			t.Errorf("single[%d] = %v, want %v", i, v, got[i])
		}
	}
	if fb.batchCalls != 1 || fb.pairCalls != 0 {
		t.Errorf("fallback after repeats: %d sweeps, %d pair calls", fb.batchCalls, fb.pairCalls)
	}

	// Graph edges pre-empt the fallback, exactly like the single path.
	g.Merge([]Edge{{From: "a", To: "bb", Weight: 0.75}}, ref)
	c.Invalidate()
	got = c.BatchPairAffinity("a", cands, ref, got)
	if got[0] != 0.75 {
		t.Errorf("graph-served batch[0] = %v, want 0.75", got[0])
	}
	if fb.batchCalls != 2 || fb.batchPairs != len(cands)+len(cands)-1 {
		t.Errorf("post-invalidate sweeps = %d (%d pairs)", fb.batchCalls, fb.batchPairs)
	}
}

// TestBatchPairAffinityConcurrent: concurrent batch sweeps over overlapping
// candidate sets must agree with the fallback values — run with -race this
// also proves concurrent inserts of one key are sound.
func TestBatchPairAffinityConcurrent(t *testing.T) {
	g := New(Options{})
	fb := &batchCountingFallback{}
	c := NewCachedAffinity(g, fb, time.Hour, 0)
	ref := time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)
	var cands []event.DeviceID
	for i := 0; i < 32; i++ {
		cands = append(cands, event.DeviceID(fmt.Sprintf("n%02d", i)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []float64
			for rep := 0; rep < 20; rep++ {
				sub := cands[(w+rep)%16 : (w+rep)%16+16]
				out = c.BatchPairAffinity("a", sub, ref, out)
				for i, cand := range sub {
					if want := fb.val("a", cand); out[i] != want {
						errs <- fmt.Sprintf("worker %d: %s = %v, want %v", w, cand, out[i], want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

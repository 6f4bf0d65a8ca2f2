package affgraph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"locater/internal/event"
)

// --- scoped write validation -------------------------------------------

func TestScopedValidationKeepsEntryAcrossRecentWrites(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.7}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	ref := t0
	if got := c.PairAffinity("a", "b", ref); got != 0.7 {
		t.Fatalf("fallback affinity = %v", got)
	}
	if fb.calls != 1 {
		t.Fatalf("fallback calls = %d, want 1", fb.calls)
	}

	// Ingest events for both devices strictly AFTER the bucket's end: the
	// cached entry provably cannot change, so it must survive.
	later := ref.Add(3 * time.Hour)
	c.ObserveIngest([]event.Event{
		{Device: "a", Time: later, AP: "ap1"},
		{Device: "b", Time: later.Add(time.Minute), AP: "ap1"},
	})
	if got := c.PairAffinity("a", "b", ref.Add(time.Minute)); got != 0.7 {
		t.Fatalf("post-write affinity = %v", got)
	}
	if fb.calls != 1 {
		t.Fatalf("fallback calls = %d after harmless write, want 1 (entry kept)", fb.calls)
	}
	ms := c.MaintenanceStats()
	if ms.ScopedKept == 0 || ms.ScopedStale != 0 {
		t.Fatalf("maintenance %+v, want kept>0 stale=0", ms)
	}
	if ms.TrackedDevices != 2 {
		t.Fatalf("tracked devices %d, want 2", ms.TrackedDevices)
	}
}

func TestScopedValidationInvalidatesOnInBucketWrite(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.7}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	ref := t0
	c.PairAffinity("a", "b", ref)

	// A write carrying an event at (or before) the bucket end may change
	// the pair's history inside the bucket: the entry must be recomputed.
	c.ObserveIngest([]event.Event{{Device: "a", Time: ref, AP: "ap1"}})
	if got := c.PairAffinity("a", "b", ref.Add(time.Minute)); got != 0.7 {
		t.Fatalf("post-write affinity = %v", got)
	}
	if fb.calls != 2 {
		t.Fatalf("fallback calls = %d after in-bucket write, want 2 (recomputed)", fb.calls)
	}
	if ms := c.MaintenanceStats(); ms.ScopedStale != 1 {
		t.Fatalf("maintenance %+v, want stale=1", ms)
	}
}

func TestScopedValidationIsPerDevice(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.5}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	ref := t0
	c.PairAffinity("a", "b", ref)
	c.PairAffinity("c", "d", ref)
	if fb.calls != 2 {
		t.Fatalf("fallback calls = %d, want 2", fb.calls)
	}

	// An in-bucket write to device a invalidates (a,b) but must NOT touch
	// (c,d) — the point of scoped validation over the old epoch bump.
	c.ObserveIngest([]event.Event{{Device: "a", Time: ref, AP: "ap1"}})
	c.PairAffinity("c", "d", ref.Add(time.Minute))
	if fb.calls != 2 {
		t.Fatalf("fallback calls = %d, want 2 (unrelated pair kept)", fb.calls)
	}
	c.PairAffinity("a", "b", ref.Add(time.Minute))
	if fb.calls != 3 {
		t.Fatalf("fallback calls = %d, want 3 (touched pair recomputed)", fb.calls)
	}
}

func TestInvalidateDeviceScopedToDevice(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.5}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	ref := t0
	c.PairAffinity("a", "b", ref)
	c.PairAffinity("c", "d", ref)

	// InvalidateDevice must kill every bucket of the device's pairs —
	// including entries for refs far in the future — but leave others.
	c.InvalidateDevice("a")
	c.PairAffinity("a", "b", ref.Add(time.Minute))
	if fb.calls != 3 {
		t.Fatalf("fallback calls = %d, want 3 (invalidated pair recomputed)", fb.calls)
	}
	c.PairAffinity("c", "d", ref.Add(time.Minute))
	if fb.calls != 3 {
		t.Fatalf("fallback calls = %d, want 3 (unrelated pair kept)", fb.calls)
	}
}

func TestWriteRingOverflowConservativelyStale(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.5}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	ref := t0
	c.PairAffinity("a", "b", ref)

	// More writes than the ring holds — all harmless (after bucket end) —
	// must still invalidate: validation can no longer prove anything.
	later := ref.Add(3 * time.Hour)
	for i := 0; i < writeRingSize+2; i++ {
		c.ObserveIngest([]event.Event{{Device: "a", Time: later.Add(time.Duration(i) * time.Minute), AP: "ap1"}})
	}
	c.PairAffinity("a", "b", ref.Add(time.Minute))
	if fb.calls != 2 {
		t.Fatalf("fallback calls = %d, want 2 (ring overflow → recompute)", fb.calls)
	}
}

func TestGlobalInvalidateStillWorks(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.5}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	ref := t0
	c.PairAffinity("a", "b", ref)
	c.Invalidate() // e.g. EstimateDeltas changed every δ at once
	c.PairAffinity("a", "b", ref.Add(time.Minute))
	if fb.calls != 2 {
		t.Fatalf("fallback calls = %d, want 2 after global invalidate", fb.calls)
	}
}

func TestBatchScopedValidation(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.5}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	ref := t0
	cands := []event.DeviceID{"b", "c", "d"}
	c.BatchPairAffinity("a", cands, ref, nil)
	calls0 := fb.calls

	// In-bucket write to c: only (a,c) recomputes on the next batch.
	c.ObserveIngest([]event.Event{{Device: "c", Time: ref, AP: "ap1"}})
	out := c.BatchPairAffinity("a", cands, ref.Add(time.Minute), nil)
	for i, v := range out {
		if v != 0.5 {
			t.Fatalf("out[%d] = %v, want 0.5", i, v)
		}
	}
	if fb.calls != calls0+1 {
		t.Fatalf("fallback calls = %d, want %d (only the touched pair)", fb.calls, calls0+1)
	}
}

func TestScopedValidationConcurrent(t *testing.T) {
	g := New(Options{})
	fb := &fixedFallback{value: 0.5}
	c := NewCachedAffinity(g, fb, time.Hour, 0)

	const workers = 8
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				d := event.DeviceID(fmt.Sprintf("dev-%d", rng.Intn(6)))
				e := event.DeviceID(fmt.Sprintf("dev-%d", rng.Intn(6)))
				switch rng.Intn(4) {
				case 0:
					c.ObserveIngest([]event.Event{{Device: d, Time: t0.Add(time.Duration(i) * time.Minute), AP: "ap1"}})
				case 1:
					c.InvalidateDevice(d)
				default:
					if d != e {
						c.PairAffinity(d, e, t0.Add(time.Duration(rng.Intn(300))*time.Minute))
					}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// TestSweepOverlappingWriteIsNotCached: a fallback sweep that overlaps a
// write returns its value to its own caller, but the next lookup computes
// again — the sweep's stamps predate the write. A write the bucket cannot
// see (events after its end) leaves the sweep's answer cached.
func TestSweepOverlappingWriteIsNotCached(t *testing.T) {
	for _, tc := range []struct {
		name   string
		write  func(c *CachedAffinity)
		cached bool
	}{
		{"Invalidate", func(c *CachedAffinity) { c.Invalidate() }, false},
		{"ObserveIngestInBucket", func(c *CachedAffinity) {
			c.ObserveIngest([]event.Event{{Device: "y", Time: t0.Add(time.Minute), AP: "ap1"}})
		}, false},
		{"InvalidateDevice", func(c *CachedAffinity) { c.InvalidateDevice("x") }, false},
		{"ObserveIngestAfterBucket", func(c *CachedAffinity) {
			c.ObserveIngest([]event.Event{{Device: "y", Time: t0.Add(2 * time.Hour), AP: "ap1"}})
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fb := &blockingFallback{entered: make(chan struct{}, 8), release: make(chan struct{})}
			c := NewCachedAffinity(New(Options{}), fb, time.Hour, 0)
			got := make(chan float64, 1)
			go func() { got <- c.PairAffinity("x", "y", t0) }()
			<-fb.entered // the sweep is running
			tc.write(c)
			close(fb.release)
			if v := <-got; v != 0.42 {
				t.Fatalf("overlapping sweep returned %v, want 0.42", v)
			}
			if v := c.PairAffinity("x", "y", t0); v != 0.42 {
				t.Fatalf("next lookup = %v, want 0.42", v)
			}
			want := 2
			if tc.cached {
				want = 1
			}
			if fb.calls != want {
				t.Errorf("fallback ran %d times, want %d", fb.calls, want)
			}
		})
	}
}

// pairRefFallback answers a value that differs per pair and per reference
// minute, symmetric in the pair.
type pairRefFallback struct{}

func (pairRefFallback) PairAffinity(a, b event.DeviceID, ref time.Time) float64 {
	x, y := orderPair(a, b)
	return float64(hashPairKey(pairKey{a: x, b: y, bucket: ref.Unix() / 60})%1000+1) / 1000
}

func (f pairRefFallback) BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, ref time.Time, out []float64) []float64 {
	for _, c := range cands {
		out = append(out, f.PairAffinity(d, c, ref))
	}
	return out
}

// TestConcurrentMissesMatchSerial: goroutines released together onto the
// same cold keys each get the value a serial lookup gets, whichever sweep
// lands in the cache first.
func TestConcurrentMissesMatchSerial(t *testing.T) {
	var cands []event.DeviceID
	for i := 0; i < 24; i++ {
		cands = append(cands, event.DeviceID(fmt.Sprintf("n%02d", i)))
	}
	refs := []time.Time{t0, t0.Add(90 * time.Minute), t0.Add(5 * time.Hour)}
	serial := NewCachedAffinity(New(Options{}), pairRefFallback{}, time.Hour, 0)
	want := make([][]float64, len(refs))
	for i, ref := range refs {
		want[i] = serial.BatchPairAffinity("hub", cands, ref, nil)
	}

	c := NewCachedAffinity(New(Options{}), pairRefFallback{}, time.Hour, 0)
	const workers = 8
	start := make(chan struct{})
	errs := make(chan string, workers) // each worker sends at most once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			var out []float64
			for rep := 0; rep < 3; rep++ {
				for i, ref := range refs {
					if w%2 == 0 {
						out = c.BatchPairAffinity("hub", cands, ref, out)
					} else {
						out = out[:0]
						for _, cand := range cands {
							out = append(out, c.PairAffinity(cand, "hub", ref))
						}
					}
					for k := range cands {
						if out[k] != want[i][k] {
							errs <- fmt.Sprintf("worker %d ref %d: %s = %v, want %v", w, i, cands[k], out[k], want[i][k])
							return
						}
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

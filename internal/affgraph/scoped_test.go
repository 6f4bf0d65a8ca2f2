package affgraph

import (
	"fmt"
	"math/rand"
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

//go:build !race

package store

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// The allocation gates run without -race, which instruments allocations.

// allocStore returns a store sealing four events to a segment. Device d has an event every 25 minutes (δ is 10), so its log
// alternates validity intervals and gaps: sealed segments over minutes 0–75
// and 100–175 and a head at 200 and 225. Inside [101m, 149m], e's only event
// sits in a sealed segment of a boundary bucket, so neighbor discovery must
// read that segment to confirm e; f's last event falls just before the window,
// in the same bucket.
func allocStore(t *testing.T) *Store {
	t.Helper()
	s := New(0)
	if err := s.ConfigureSegments(SegmentConfig{MaxEvents: 4}); err != nil {
		t.Fatal(err)
	}
	var evs []event.Event
	for i := 0; i < 10; i++ {
		evs = append(evs, mk("d", time.Duration(i)*25*time.Minute, "x"))
	}
	for _, m := range []time.Duration{50, 102, 300, 400} {
		evs = append(evs, mk("e", m*time.Minute, "x"))
	}
	for _, m := range []time.Duration{40, 60, 80, 100} {
		evs = append(evs, mk("f", m*time.Minute, "x"))
	}
	if _, err := s.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	if st := s.SegmentStats(); st.Segments != 4 {
		t.Fatalf("%d segments sealed, want 4", st.Segments)
	}
	return s
}

// TestPointLookupAllocs: CurrentAP and At answer from the point-lookup
// neighborhood without allocating — inside a sealed segment (a validity and
// a gap), across two segments, across a segment and the head, and in the
// head.
func TestPointLookupAllocs(t *testing.T) {
	s := allocStore(t)
	for _, m := range []time.Duration{105, 137, 88, 187, 205} {
		tq := t0.Add(m * time.Minute)
		if n := testing.AllocsPerRun(100, func() { s.CurrentAP("d", tq) }); n != 0 {
			t.Errorf("CurrentAP(t0+%dm) allocates %v times per call, want 0", m, n)
		}
		if n := testing.AllocsPerRun(100, func() { s.At("d", tq) }); n != 0 {
			t.Errorf("At(t0+%dm) allocates %v times per call, want 0", m, n)
		}
	}
}

// TestActiveDevicesAtAllocs: a neighbor lookup allocates its result and
// nothing else, also when it confirms a boundary-bucket device from a sealed
// segment.
func TestActiveDevicesAtAllocs(t *testing.T) {
	s := allocStore(t)
	start, end := t0.Add(101*time.Minute), t0.Add(149*time.Minute)
	want := []event.DeviceID{"d", "e"}
	for _, aps := range [][]space.APID{nil, {"x"}} {
		if got := s.ActiveDevicesAt(aps, start, end); !reflect.DeepEqual(got, want) {
			t.Fatalf("ActiveDevicesAt(%v) = %v, want %v", aps, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { s.ActiveDevicesAt(aps, start, end) }); n != 1 {
			t.Errorf("ActiveDevicesAt(%v) allocates %v times per call, want 1 (the result)", aps, n)
		}
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStoreAllocsFootprint pins what the store's in-memory structures cost
// per event: 100 devices of 1,100 events each over 40 APs, sealed at the
// default 512 events into two segments per device plus a 76-event head,
// every segment decoded into the segment cache, and the occupancy index
// built. Device and AP names come from shared pools, as the WAL decoder's
// strings would not, so only the store's own structures count. The bound
// sits well below the 85 B/event the event-form store held here (heads and
// decoded segments as 64-byte event.Events, the index one string-keyed map
// per bucket); the record store holds 35.
func TestStoreAllocsFootprint(t *testing.T) {
	const (
		devices   = 100
		perDevice = 1100
		maxPerEv  = 45.0
	)
	aps := make([]space.APID, 40)
	for i := range aps {
		aps[i] = space.APID(fmt.Sprintf("ap-%02d", i))
	}
	evs := make([]event.Event, 0, devices*perDevice)
	for i := 0; i < perDevice; i++ {
		for d := 0; d < devices; d++ {
			evs = append(evs, event.Event{
				Device: event.DeviceID(fmt.Sprintf("dev-%03d", d)),
				Time:   t0.Add(time.Duration(i)*3*time.Minute + time.Duration(d)*time.Second),
				AP:     aps[(d+i/20)%len(aps)],
			})
		}
	}
	base := liveHeap()
	s := New(0)
	for lo := 0; lo < len(evs); lo += 4096 {
		if _, err := s.Ingest(evs[lo:min(lo+4096, len(evs))]); err != nil {
			t.Fatal(err)
		}
	}
	end := t0.Add(perDevice * 3 * time.Minute)
	for d := 0; d < devices; d++ {
		s.EventsBetween(event.DeviceID(fmt.Sprintf("dev-%03d", d)), t0, end)
	}
	held := liveHeap() - base
	st := s.SegmentStats()
	if st.Segments != 2*devices || st.CacheSize != st.Segments {
		t.Fatalf("%d segments, %d cached; want %d, all cached", st.Segments, st.CacheSize, 2*devices)
	}
	if s.OccupancyStats().Entries == 0 {
		t.Fatal("occupancy index empty")
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(evs)
	perEv := float64(held) / float64(len(evs))
	t.Logf("store holds %.1f B/event (%d events, %.2f MB)", perEv, len(evs), float64(held)/1e6)
	if perEv > maxPerEv {
		t.Errorf("store holds %.1f B/event, want ≤ %.0f", perEv, maxPerEv)
	}
}

// TestScanEventsAllocs: a warm ScanEvents hands out its window without
// allocating — from the head, from one cached segment, and merged across
// segments and the head through the pooled buffer.
func TestScanEventsAllocs(t *testing.T) {
	s := allocStore(t)
	for _, w := range []struct{ from, to time.Duration }{
		{200, 225}, // head
		{0, 50},    // one sealed segment
		{30, 215},  // both segments and the head
	} {
		start, end := t0.Add(w.from*time.Minute), t0.Add(w.to*time.Minute)
		n := 0
		fn := func(recs []event.Rec, _ []space.APID, _ time.Duration) { n += len(recs) }
		if allocs := testing.AllocsPerRun(100, func() { s.ScanEvents("d", start, end, fn) }); allocs != 0 {
			t.Errorf("ScanEvents(t0+%dm, t0+%dm) allocates %v times per call, want 0", w.from, w.to, allocs)
		}
		if n == 0 {
			t.Errorf("ScanEvents(t0+%dm, t0+%dm) saw no events", w.from, w.to)
		}
	}
}

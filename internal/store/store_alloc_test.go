//go:build !race

package store

import (
	"reflect"
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

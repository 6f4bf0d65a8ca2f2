package store

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/wal"
)

// TestTimestampOutsideNanosRefused: a time that int64 nanoseconds cannot
// hold is refused as ErrInvalidEvent before anything is logged or applied.
// Accepted, it would be stored as UnixNano's wrapped value: a 2300 event
// came back from a seal, and from WAL recovery, as 1715.
func TestTimestampOutsideNanosRefused(t *testing.T) {
	for _, at := range []time.Time{
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, math.MaxInt64).Add(1),
		time.Unix(0, math.MinInt64).Add(-1),
	} {
		s := newSegmented(t, 2, nil)
		b := newMemBackend()
		s.AttachBackend(b)
		_, err := s.Ingest([]event.Event{
			{Device: "d", Time: t0, AP: "x"},
			{Device: "d", Time: at, AP: "x"},
		})
		if !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("Ingest at %v: err = %v, want ErrInvalidEvent", at, err)
		}
		if s.NumEvents() != 0 || len(b.events) != 0 {
			t.Fatalf("refused batch at %v left %d events in the store, %d in the log", at, s.NumEvents(), len(b.events))
		}
		if TimeFits(at) {
			t.Errorf("TimeFits(%v) = true", at)
		}
	}
}

// TestNanosBoundsRoundTrip: the exact int64-nanosecond bounds are accepted
// and come back unchanged from the head, from a sealed segment, through a
// checkpoint restore, and through write-ahead-log recovery.
func TestNanosBoundsRoundTrip(t *testing.T) {
	lo, hi := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	if !TimeFits(lo) || !TimeFits(hi) {
		t.Fatalf("TimeFits refuses its own bounds %v, %v", lo, hi)
	}
	// Each bound seals into a segment of its own (a segment spanning more
	// than int64 nanoseconds cannot be encoded, so its seal would fail and
	// keep the head); t0 stays in the head.
	want := []event.Event{
		{ID: 1, Device: "d", Time: lo, AP: "a"},
		{ID: 2, Device: "d", Time: lo.Add(time.Minute), AP: "b"},
		{ID: 3, Device: "d", Time: hi.Add(-time.Minute), AP: "b"},
		{ID: 4, Device: "d", Time: hi, AP: "a"},
		{ID: 5, Device: "d", Time: t0, AP: "b"},
	}
	dir := t.TempDir()
	w, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backend := NewMemorySegmentBackend()
	s := newSegmented(t, 2, backend)
	s.AttachBackend(w)
	in := make([]event.Event, len(want))
	copy(in, want)
	for i := range in {
		in[i].ID = 0
	}
	if _, err := s.Ingest(in); err != nil {
		t.Fatal(err)
	}
	if st := s.SegmentStats(); st.Segments != 2 || st.HeadEvents != 1 || st.SealFailures != 0 {
		t.Fatalf("%d segments, %d head events, %d failed seals; want 2, 1 and 0", st.Segments, st.HeadEvents, st.SealFailures)
	}
	// Recovery replays the log in ingest order; the store answers in time
	// order.
	walWant := append([]event.Event(nil), want...)
	want = []event.Event{want[0], want[1], want[4], want[2], want[3]}
	if got := s.Events("d"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events = %v, want %v", got, want)
	}
	if got := s.EventsBetween("d", lo, hi); !reflect.DeepEqual(got, want) {
		t.Fatalf("EventsBetween(bounds) = %v, want %v", got, want)
	}
	if e, ok := s.LastEventAtOrBefore("d", hi); !ok || !reflect.DeepEqual(e, want[4]) {
		t.Fatalf("LastEventAtOrBefore(max) = %v, %v", e, ok)
	}
	if got := s.ActiveDevicesAt([]space.APID{"a"}, lo, lo); !reflect.DeepEqual(got, []event.DeviceID{"d"}) {
		t.Fatalf("ActiveDevicesAt at the lower bound = %v", got)
	}

	st := s.CheckpointState()
	restored := newSegmented(t, 2, backend)
	if err := restored.RestoreSegments(st.Segments); err != nil {
		t.Fatal(err)
	}
	for _, evs := range st.Heads {
		if _, err := restored.Ingest(evs); err != nil {
			t.Fatal(err)
		}
	}
	if got := restored.Events("d"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored Events = %v, want %v", got, want)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !reflect.DeepEqual(rec.Events, walWant) {
		t.Fatalf("recovered %v, want %v", rec.Events, walWant)
	}
}

// TestSealSpanningInt64Progresses: a head holding one event at each int64
// bound spans more nanoseconds than a segment can encode. Each seal then
// takes the longest prefix that fits, so the head stays bounded, and every
// event reads back unchanged, also from a store reopened on the same
// segment files.
func TestSealSpanningInt64Progresses(t *testing.T) {
	const segMax = 4
	lo, hi := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	dir := t.TempDir()
	backend, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newSegmented(t, segMax, backend)
	if _, err := s.Ingest([]event.Event{{Device: "d", Time: lo, AP: "a"}, {Device: "d", Time: hi, AP: "b"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segMax; i++ {
		if _, err := s.Ingest([]event.Event{{Device: "d", Time: t0.Add(time.Duration(i) * time.Minute), AP: "c"}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.SegmentStats()
	if st.Segments < 1 || st.HeadEvents > segMax || st.SealFailures != 0 {
		t.Fatalf("%d segments, %d head events, %d failed seals; want ≥ 1, ≤ %d and 0", st.Segments, st.HeadEvents, st.SealFailures, segMax)
	}
	want := []event.Event{{ID: 1, Device: "d", Time: lo, AP: "a"}}
	for i := 0; i < segMax; i++ {
		want = append(want, event.Event{ID: int64(3 + i), Device: "d", Time: t0.Add(time.Duration(i) * time.Minute), AP: "c"})
	}
	want = append(want, event.Event{ID: 2, Device: "d", Time: hi, AP: "b"})
	if got := s.Events("d"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events = %v, want %v", got, want)
	}

	cp := s.CheckpointState()
	if err := s.SyncSegments(); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseSegments(); err != nil {
		t.Fatal(err)
	}
	backend, err = NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened := newSegmented(t, segMax, backend)
	defer reopened.CloseSegments()
	if err := reopened.RestoreSegments(cp.Segments); err != nil {
		t.Fatal(err)
	}
	for _, evs := range cp.Heads {
		if _, err := reopened.Ingest(evs); err != nil {
			t.Fatal(err)
		}
	}
	if got := reopened.Events("d"); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened Events = %v, want %v", got, want)
	}
}

// TestAPDictionaryAcrossRestore: segment decodes map each payload's own AP
// dictionary onto the store's ordinals, so a store restored with its
// segments in a different order — and so a different dictionary order —
// answers exactly as the original; a payload naming an AP the store has
// never seen is refused, not decoded.
func TestAPDictionaryAcrossRestore(t *testing.T) {
	backend := NewMemorySegmentBackend()
	s := newSegmented(t, 3, backend)
	var evs []event.Event
	for i := 0; i < 12; i++ {
		evs = append(evs,
			mk("p", time.Duration(i)*time.Minute, []string{"a1", "a2", "a3"}[i%3]),
			mk("q", time.Duration(i)*time.Minute, []string{"b1", "a2"}[i%2]))
	}
	if _, err := s.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	st := s.CheckpointState()
	restored := newSegmented(t, 3, backend)
	if err := restored.RestoreSegments(st.Segments); err != nil {
		t.Fatal(err)
	}
	for _, d := range []event.DeviceID{"p", "q"} {
		if got, want := restored.Events(d), s.Events(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored Events(%s) = %v, want %v", d, got, want)
		}
	}
	for _, aps := range [][]space.APID{nil, {"a2"}, {"b1"}, {"a3", "b1"}, {"zz"}, {}} {
		got := restored.ActiveDevicesAt(aps, t0, t0.Add(time.Hour))
		if want := s.ActiveDevicesAt(aps, t0, t0.Add(time.Hour)); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored ActiveDevicesAt(%v) = %v, want %v", aps, got, want)
		}
	}

	// A payload naming an AP this store never saw is not its own: refused.
	stranger := newSegmented(t, 3, nil)
	if _, err := stranger.Ingest([]event.Event{mk("p", 0, "a1"), mk("p", time.Minute, "a1")}); err != nil {
		t.Fatal(err)
	}
	payload, _ := wal.EncodeSegment(nil, []event.Event{mk("p", 0, "zz"), mk("p", time.Minute, "zz"), mk("p", 2*time.Minute, "zz")}, 0)
	if _, err := wal.DecodeSegmentRecs(payload, nil, stranger.apOrdinal); err == nil {
		t.Fatal("payload naming an unknown AP decoded")
	}
}

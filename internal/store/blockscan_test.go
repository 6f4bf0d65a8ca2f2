package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/wal"
)

// TestBlockScanMatchesSliceOracle is the property test behind the segmented
// read paths: for random out-of-order seal histories, every read on a store
// sealing 16-event segments answers byte-for-byte identically to a
// plain-slice oracle. Segments sealed from out-of-order ingestion overlap in
// time, so segment pruning must be correct across overlapping segments,
// equal timestamps spilling over segment boundaries, and window edges
// landing inside, between, and outside segments. A second identical pass
// must be served from the decoded-segment cache alone.
func TestBlockScanMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seg := newSegmented(t, 16, nil)
		ora := newSliceOracle(t)

		devs := []string{"d0", "d1", "d2", "d3"}
		aps := []string{"a0", "a1", "a2"}
		span := 4 * time.Hour
		for i := 0; i < 600; i++ {
			// Bursts of equal timestamps force ties to straddle segment
			// boundaries; backward jumps force overlapping seals.
			off := time.Duration(rng.Int63n(int64(span)))
			if rng.Intn(8) == 0 {
				off = off.Round(10 * time.Minute)
			}
			e := mk(devs[rng.Intn(len(devs))], off, aps[rng.Intn(len(aps))])
			for _, s := range []*Store{seg, ora} {
				if err := s.IngestOne(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := seg.SegmentStats(); st.Segments == 0 {
			t.Fatal("workload sealed no segments")
		}

		randT := func() time.Time {
			return t0.Add(time.Duration(rng.Int63n(int64(span+time.Hour))) - 30*time.Minute)
		}
		type query struct {
			d          event.DeviceID
			a, b, tq   time.Time
			filter     []space.APID
			activeOnly bool
		}
		var queries []query
		for i := 0; i < 300; i++ {
			q := query{d: event.DeviceID(devs[rng.Intn(len(devs))]), a: randT(), b: randT(), tq: randT()}
			if q.b.Before(q.a) {
				q.a, q.b = q.b, q.a
			}
			queries = append(queries, q)
		}
		// Active-device discovery exercises the segment endpoint pruning.
		for i := 0; i < 50; i++ {
			q := query{a: randT(), b: randT(), activeOnly: true}
			if q.b.Before(q.a) {
				q.a, q.b = q.b, q.a
			}
			if i%2 == 1 {
				q.filter = []space.APID{space.APID(aps[rng.Intn(len(aps))])}
			}
			queries = append(queries, q)
		}
		pass := func() {
			for _, q := range queries {
				if q.activeOnly {
					got := seg.ActiveDevicesAt(q.filter, q.a, q.b)
					want := ora.ActiveDevicesAt(q.filter, q.a, q.b)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d: ActiveDevicesAt(%v, %v, %v) = %v, oracle %v", seed, q.filter, q.a, q.b, got, want)
					}
					continue
				}
				d, tq := q.d, q.tq
				if gs, ws := seg.EventsBetween(d, q.a, q.b), ora.EventsBetween(d, q.a, q.b); !eventsEqual(gs, ws) {
					t.Fatalf("seed %d: EventsBetween(%s, %v, %v): segmented %d, oracle %d events",
						seed, d, q.a, q.b, len(gs), len(ws))
				}
				se, sok := seg.LastEventAtOrBefore(d, tq)
				oe, ook := ora.LastEventAtOrBefore(d, tq)
				if sok != ook || (sok && se.ID != oe.ID) {
					t.Fatalf("seed %d: LastEventAtOrBefore(%s, %v) = %v/%v, oracle %v/%v", seed, d, tq, se, sok, oe, ook)
				}
				sv, _, sw, serr := seg.At(d, tq)
				ov, _, ow, oerr := ora.At(d, tq)
				if (serr == nil) != (oerr == nil) || sw != ow {
					t.Fatalf("seed %d: At(%s, %v) shape diverges from oracle", seed, d, tq)
				}
				if sw == event.InValidity && (sv.Event.ID != ov.Event.ID || !sv.Start.Equal(ov.Start) || !sv.End.Equal(ov.End)) {
					t.Fatalf("seed %d: At(%s, %v) validity diverges", seed, d, tq)
				}
			}
		}
		pass()
		pageIns := seg.SegmentStats().PageIns
		pass()
		if st := seg.SegmentStats(); st.PageIns != pageIns {
			t.Fatalf("seed %d: repeat pass paged in %d segments, want 0", seed, st.PageIns-pageIns)
		}
		for _, d := range devs {
			dd := event.DeviceID(d)
			if !eventsEqual(seg.Events(dd), ora.Events(dd)) {
				t.Fatalf("seed %d: device %s: Events diverges", seed, d)
			}
		}
	}
}

// TestSegmentDecodedOnce: every read path shares one decode per sealed
// segment. A full-window scan, an AP-scoped neighbor lookup that must
// confirm a device from inside one segment, and a point lookup in every
// segment leave exactly one cached decode per segment, weighing 64 B per
// sealed event; repeating them pages nothing in.
func TestSegmentDecodedOnce(t *testing.T) {
	s := newSegmented(t, 2*DefaultSegmentBlockEvents, nil)
	const n = 4*DefaultSegmentBlockEvents + 5
	for i := 0; i < n; i++ {
		if err := s.IngestOne(mk("d", time.Duration(i)*time.Minute, "x")); err != nil {
			t.Fatal(err)
		}
	}
	pass := func() {
		if evs := s.EventsBetween("d", t0, t0.Add(n*time.Minute)); len(evs) != n {
			t.Fatalf("full window read %d events, want %d", len(evs), n)
		}
		// [30m30s, 32m] holds no whole occupancy bucket, so d is confirmed
		// by reading its first segment.
		if got := s.ActiveDevicesAt([]space.APID{"x"}, t0.Add(30*time.Minute+30*time.Second), t0.Add(32*time.Minute)); !slices.Equal(got, []event.DeviceID{"d"}) {
			t.Fatalf("ActiveDevicesAt = %v, want [d]", got)
		}
		for i := 0; i < n; i += DefaultSegmentBlockEvents / 2 {
			if _, _, _, err := s.At("d", t0.Add(time.Duration(i)*time.Minute+30*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	st := s.SegmentStats()
	if st.Segments != 2 || st.SegmentEvents != 4*DefaultSegmentBlockEvents {
		t.Fatalf("sealed %d segments / %d events, want 2 / %d", st.Segments, st.SegmentEvents, 4*DefaultSegmentBlockEvents)
	}
	if st.CachedBytes != int64(approxEventBytes*st.SegmentEvents) || st.CacheSize != st.Segments {
		t.Fatalf("cache holds %d B in %d entries, want %d B in %d (one decode per segment)",
			st.CachedBytes, st.CacheSize, approxEventBytes*st.SegmentEvents, st.Segments)
	}
	pass()
	if again := s.SegmentStats().PageIns; again != st.PageIns {
		t.Fatalf("repeat pass paged in %d segments, want 0", again-st.PageIns)
	}
}

// TestRestoredBareBlockPayloadRefused: sealed segments were once written as
// one bare event block — no block index, no segment-wide dictionary. Such a
// payload, put in the backend by hand, fails RestoreSegments (whose
// occupancy rebuild reads every restored segment) with wal.ErrRetiredFormat,
// so recovery stops instead of serving or skipping it.
func TestRestoredBareBlockPayloadRefused(t *testing.T) {
	evs := make([]event.Event, 40)
	for i := range evs {
		evs[i] = mk("d", time.Duration(i)*7*time.Minute, fmt.Sprintf("a%d", i%3))
		evs[i].ID = int64(i + 1)
	}
	indexed, metas := wal.EncodeSegment(nil, evs, 0)
	payload := indexed[:metas[0].Len] // the one block, without its index trailer
	backend := NewMemorySegmentBackend()
	if err := backend.Put("d", 1, payload); err != nil {
		t.Fatal(err)
	}
	s := newSegmented(t, 16, backend)
	err := s.RestoreSegments(map[event.DeviceID][]wal.SegmentMeta{"d": {{
		Seq:      1,
		Count:    len(evs),
		MinNanos: evs[0].Time.UnixNano(),
		MaxNanos: evs[len(evs)-1].Time.UnixNano(),
		Bytes:    len(payload),
	}}})
	if !errors.Is(err, wal.ErrRetiredFormat) {
		t.Fatalf("RestoreSegments(bare-block payload) = %v, want wal.ErrRetiredFormat", err)
	}
	if st := s.SegmentStats(); st.DecodeFailures == 0 {
		t.Fatalf("bare-block refusal not counted: %+v", st)
	}
}

// TestResidentBytesSplitHeapVsMmap pins the /stats contract: with the mmap
// cold tier, decoded segments are heap-resident (CachedBytes) while encoded
// payloads are OS-resident (Backend.MappedBytes) — two separate non-zero
// numbers. With the in-memory backend the mapped figure is zero.
func TestResidentBytesSplitHeapVsMmap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	backend, err := NewMmapSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newSegmented(t, 8, backend)
	for i := 0; i < 64; i++ {
		if err := s.IngestOne(mk("d", time.Duration(i)*time.Minute, fmt.Sprintf("ap%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	s.InvalidateSegmentCache()
	if evs := s.EventsBetween("d", t0, t0.Add(time.Hour)); len(evs) != 61 {
		t.Fatalf("window read %d events, want 61", len(evs))
	}
	st := s.SegmentStats()
	if st.CachedBytes <= 0 {
		t.Fatalf("heap-resident decoded bytes = %d, want > 0", st.CachedBytes)
	}
	if st.Backend.MappedFiles != 1 || st.Backend.MappedBytes <= 0 {
		t.Fatalf("mmap residency = %+v, want one mapped file", st.Backend)
	}
	if err := s.CloseSegments(); err != nil {
		t.Fatal(err)
	}

	mem := newSegmented(t, 8, nil)
	for i := 0; i < 64; i++ {
		if err := mem.IngestOne(mk("d", time.Duration(i)*time.Minute, "x")); err != nil {
			t.Fatal(err)
		}
	}
	mem.EventsBetween("d", t0, t0.Add(time.Hour))
	if st := mem.SegmentStats(); st.Backend.MappedBytes != 0 || st.Backend.MappedFiles != 0 {
		t.Fatalf("in-memory backend reports mmap residency: %+v", st.Backend)
	}
}

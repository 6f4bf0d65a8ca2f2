package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/wal"
)

// newBlockStore returns a segmented store with an intra-segment block size
// small enough that every segment holds several blocks — the configuration
// the block-skip scan paths exist for.
func newBlockStore(t *testing.T, segMax, blockEvents int, backend SegmentBackend) *Store {
	t.Helper()
	s := New(0)
	cfg := SegmentConfig{MaxEvents: segMax, BlockEvents: blockEvents, Backend: backend}
	if err := s.ConfigureSegments(cfg); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBlockScanMatchesSliceOracle is the property test behind the block
// index: for random out-of-order seal histories, every read path on a
// block-indexed store (blocks of 3, index-driven skips) answers byte-for-
// byte identically to a plain-slice oracle. Segments sealed from
// out-of-order ingestion overlap in time, so block pruning must be correct
// across overlapping segments, equal timestamps spilling over block
// boundaries, and window edges landing inside, between, and outside blocks.
func TestBlockScanMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		block := newBlockStore(t, 16, 3, nil)
		ora := newSliceOracle(t)

		devs := []string{"d0", "d1", "d2", "d3"}
		aps := []string{"a0", "a1", "a2"}
		span := 4 * time.Hour
		for i := 0; i < 600; i++ {
			// Bursts of equal timestamps force ties to straddle block
			// boundaries; backward jumps force overlapping seals.
			off := time.Duration(rng.Int63n(int64(span)))
			if rng.Intn(8) == 0 {
				off = off.Round(10 * time.Minute)
			}
			e := mk(devs[rng.Intn(len(devs))], off, aps[rng.Intn(len(aps))])
			for _, s := range []*Store{block, ora} {
				if err := s.IngestOne(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := block.SegmentStats(); st.Segments == 0 {
			t.Fatal("workload sealed no segments")
		}

		randT := func() time.Time {
			return t0.Add(time.Duration(rng.Int63n(int64(span+time.Hour))) - 30*time.Minute)
		}
		for i := 0; i < 300; i++ {
			d := event.DeviceID(devs[rng.Intn(len(devs))])
			a, b := randT(), randT()
			if b.Before(a) {
				a, b = b, a
			}
			gb := block.EventsBetween(d, a, b)
			go_ := ora.EventsBetween(d, a, b)
			if !eventsEqual(gb, go_) {
				t.Fatalf("seed %d: EventsBetween(%s, %v, %v): block %d, oracle %d events",
					seed, d, a, b, len(gb), len(go_))
			}
			tq := randT()
			be, bok := block.LastEventAtOrBefore(d, tq)
			oe, ook := ora.LastEventAtOrBefore(d, tq)
			if bok != ook || (bok && be.ID != oe.ID) {
				t.Fatalf("seed %d: LastEventAtOrBefore(%s, %v) = %v/%v, oracle %v/%v", seed, d, tq, be, bok, oe, ook)
			}
			be, bok = block.FirstEventAfter(d, tq)
			oe, ook = ora.FirstEventAfter(d, tq)
			if bok != ook || (bok && be.ID != oe.ID) {
				t.Fatalf("seed %d: FirstEventAfter(%s, %v) = %v/%v, oracle %v/%v", seed, d, tq, be, bok, oe, ook)
			}
			bv, _, bw, berr := block.At(d, tq)
			ov, _, ow, oerr := ora.At(d, tq)
			if (berr == nil) != (oerr == nil) || bw != ow {
				t.Fatalf("seed %d: At(%s, %v) shape diverges from oracle", seed, d, tq)
			}
			if bw == event.InValidity && (bv.Event.ID != ov.Event.ID || !bv.Start.Equal(ov.Start) || !bv.End.Equal(ov.End)) {
				t.Fatalf("seed %d: At(%s, %v) validity diverges", seed, d, tq)
			}
		}
		// Active-device discovery exercises the per-block endpoint pruning.
		for i := 0; i < 50; i++ {
			a, b := randT(), randT()
			if b.Before(a) {
				a, b = b, a
			}
			var filter []space.APID
			if i%2 == 1 {
				filter = []space.APID{space.APID(aps[rng.Intn(len(aps))])}
			}
			got := block.ActiveDevicesAt(filter, a, b)
			want := ora.ActiveDevicesAt(filter, a, b)
			if len(got) != len(want) {
				t.Fatalf("seed %d: ActiveDevicesAt(%v, %v, %v) = %v, oracle %v", seed, filter, a, b, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d: ActiveDevicesAt(%v, %v, %v) = %v, oracle %v", seed, filter, a, b, got, want)
				}
			}
		}
		// The point of the layout: the index must actually have pruned
		// blocks, and full materialization must agree too.
		if st := block.SegmentStats(); st.BlockSkips == 0 {
			t.Fatalf("seed %d: no block skips recorded — the index never pruned anything", seed)
		}
		for _, d := range devs {
			dd := event.DeviceID(d)
			if !eventsEqual(block.Events(dd), ora.Events(dd)) {
				t.Fatalf("seed %d: device %s: Events diverges", seed, d)
			}
		}
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
	s := newBlockStore(t, 16, 3, backend)
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
// cold tier, decoded blocks are heap-resident (CachedBytes) while encoded
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
	s := newBlockStore(t, 8, 2, backend)
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

	mem := newBlockStore(t, 8, 2, nil)
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

package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// refActive is the test's own brute-force oracle, computed straight from an
// event slice with no store machinery: the sorted devices with at least one
// event in [start, end], optionally restricted to a set of APs (nil = any).
func refActive(evs []event.Event, aps []space.APID, start, end time.Time) []event.DeviceID {
	apOK := func(ap space.APID) bool {
		if aps == nil {
			return true
		}
		for _, a := range aps {
			if a == ap {
				return true
			}
		}
		return false
	}
	seen := make(map[event.DeviceID]bool)
	for _, e := range evs {
		if !e.Time.Before(start) && !e.Time.After(end) && apOK(e.AP) {
			seen[e.Device] = true
		}
	}
	var out []event.DeviceID
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randomWorkload builds a reproducible batch of events across devices and
// APs with deliberately shuffled timestamps (out-of-order ingestion).
func randomWorkload(rng *rand.Rand, devices, aps, n int) []event.Event {
	evs := make([]event.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, event.Event{
			Device: event.DeviceID(fmt.Sprintf("d%03d", rng.Intn(devices))),
			AP:     space.APID(fmt.Sprintf("ap%02d", rng.Intn(aps))),
			// Timestamps over ~3 days at second granularity, drawn in random
			// order so most logs are knocked out of time order.
			Time: t0.Add(time.Duration(rng.Intn(3*24*3600)) * time.Second),
		})
	}
	return evs
}

// TestActiveDevicesIndexScanEquivalenceProperty is the occupancy index's
// correctness contract: across random workloads (with out-of-order
// ingestion), random windows, and random AP scopes, the index-served result
// is byte-identical to the brute-force oracle — on a store whose logs stay in
// their heads, on a store sealing four-event segments (so boundary devices
// are confirmed from sealed segments), and on that store
// rebuilt through CheckpointState and RestoreSegments, whose AP dictionary
// is assigned in a different order. The AP scopes include "any" (nil),
// none ({}), and APs never ingested, alone and mixed with real ones; the
// windows include ones reaching past int64 nanoseconds. The oracle reads
// the raw events, so a device- or AP-numbering bug every store shared would
// still fail.
func TestActiveDevicesIndexScanEquivalenceProperty(t *testing.T) {
	segmentsRead := false
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := randomWorkload(rng, 40, 6, 600)

		sealedCfg := SegmentConfig{MaxEvents: 4, Backend: NewMemorySegmentBackend()}
		indexed, sealed := New(0), New(0)
		if err := sealed.ConfigureSegments(sealedCfg); err != nil {
			t.Fatal(err)
		}
		// Ingest in small batches so sortedness flips repeatedly.
		for i := 0; i < len(evs); i += 37 {
			end := min(i+37, len(evs))
			for _, s := range []*Store{indexed, sealed} {
				if _, err := s.Ingest(evs[i:end]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := indexed.OccupancyStats(); st.Entries == 0 {
			t.Fatalf("seed %d: index not populated: %+v", seed, st)
		}
		if st := sealed.SegmentStats(); st.Segments == 0 {
			t.Fatalf("seed %d: nothing sealed", seed)
		}

		cp := sealed.CheckpointState()
		restored := New(0)
		if err := restored.ConfigureSegments(sealedCfg); err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreSegments(cp.Segments); err != nil {
			t.Fatal(err)
		}
		for _, head := range cp.Heads {
			if _, err := restored.Ingest(head); err != nil {
				t.Fatal(err)
			}
		}
		stores := []struct {
			name string
			s    *Store
		}{{"indexed", indexed}, {"sealed", sealed}, {"restored", restored}}

		apSets := [][]space.APID{
			nil,
			{},
			{"ap00"},
			{"ap01", "ap03", "ap05"},
			{"ap02", "nope"},
			{"nope"},
			{"nope", "zz", "ap04"},
		}
		// Windows reaching past what int64 nanoseconds hold: every stored
		// event (or none) lies inside them.
		edges := [][2]time.Time{
			{time.Time{}, time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)},
			{time.Time{}, t0.Add(36 * time.Hour)},
			{t0.Add(36 * time.Hour), time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)},
			{time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)},
			{time.Time{}, time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC)},
		}
		for q := 0; q < 60; q++ {
			start := t0.Add(time.Duration(rng.Intn(3*24*3600)-3600) * time.Second)
			end := start.Add(time.Duration(rng.Intn(4*3600)-60) * time.Second)
			if q < len(edges) {
				start, end = edges[q][0], edges[q][1]
			}
			aps := apSets[rng.Intn(len(apSets))]
			want := refActive(evs, aps, start, end)
			for _, st := range stores {
				got := st.s.ActiveDevicesAt(aps, start, end)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d query %d (%s, aps=%v, [%v,%v]): got %v, want %v",
						seed, q, st.name, aps, start, end, got, want)
				}
			}
		}
		segmentsRead = segmentsRead || (sealed.SegmentStats().PageIns > 0 && restored.SegmentStats().PageIns > 0)
	}
	if !segmentsRead {
		t.Fatal("no seed confirmed a device from a sealed segment in both segmented stores")
	}
}

// TestActiveDevicesInteriorAndBoundaryBuckets pins the verification split:
// a device whose only event sits in a boundary bucket but outside the
// window must be excluded, while interior-bucket devices are included
// without touching their logs.
func TestActiveDevicesInteriorAndBoundaryBuckets(t *testing.T) {
	s := New(0)
	mustIngest := func(d event.DeviceID, at time.Time) {
		t.Helper()
		if _, err := s.Ingest([]event.Event{{Device: d, AP: "ap", Time: at}}); err != nil {
			t.Fatal(err)
		}
	}
	start := t0.Add(2 * time.Minute) // mid-bucket
	end := start.Add(25 * time.Minute)
	mustIngest("in-boundary", start.Add(time.Minute))      // boundary bucket, inside window
	mustIngest("out-boundary", start.Add(-1*time.Minute))  // same bucket, before start
	mustIngest("interior", start.Add(12*time.Minute))      // fully-interior bucket
	mustIngest("out-far", start.Add(-2*time.Hour))         // different bucket entirely
	mustIngest("end-boundary-out", end.Add(2*time.Minute)) // end bucket, after end

	got := s.ActiveDevicesAt(nil, start, end)
	want := []event.DeviceID{"in-boundary", "interior"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveDevices = %v, want %v", got, want)
	}
}

// TestActiveDevicesSortsOnlyDirtyLogs is the sort-scope regression test:
// one out-of-order ingest among many devices must trigger exactly one lazy
// re-sort on the slow path, not a pass over every log.
func TestActiveDevicesSortsOnlyDirtyLogs(t *testing.T) {
	s := New(0)
	for i := 0; i < 100; i++ {
		d := event.DeviceID(fmt.Sprintf("d%03d", i))
		for j := 0; j < 5; j++ {
			if _, err := s.Ingest([]event.Event{{Device: d, AP: "ap", Time: t0.Add(time.Duration(j) * time.Minute)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Knock exactly one log out of order.
	if _, err := s.Ingest([]event.Event{{Device: "d042", AP: "ap", Time: t0.Add(-time.Hour)}}); err != nil {
		t.Fatal(err)
	}
	if n := len(s.dirty); n != 1 {
		t.Fatalf("dirty logs = %d, want 1", n)
	}
	before := s.resorts
	got := s.ActiveDevicesAt(nil, t0, t0.Add(10*time.Minute))
	if len(got) != 100 {
		t.Fatalf("ActiveDevices returned %d devices, want 100", len(got))
	}
	if n := s.resorts - before; n != 1 {
		t.Errorf("slow path performed %d re-sorts, want exactly 1 (the dirty log)", n)
	}
	if len(s.dirty) != 0 {
		t.Errorf("dirty set not drained: %d", len(s.dirty))
	}
	// The dirtied log must now serve the pre-seed event in time order.
	evs := s.Events("d042")
	if len(evs) != 6 || !evs[0].Time.Equal(t0.Add(-time.Hour)) {
		t.Errorf("re-sorted log wrong: %v", evs)
	}
}

// TestOccupancyStatsCounters checks the index's observability surface:
// lookups and bucket/entry sizes.
func TestOccupancyStatsCounters(t *testing.T) {
	s := New(0)
	if st := s.OccupancyStats(); st.Bucket != occupancyBucket {
		t.Fatalf("empty index state: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Ingest([]event.Event{{
			Device: event.DeviceID(fmt.Sprintf("d%d", i)),
			AP:     space.APID(fmt.Sprintf("ap%d", i%2)),
			Time:   t0.Add(time.Duration(i) * time.Hour),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.OccupancyStats()
	if st.Buckets != 4 || st.Entries != 4 {
		t.Errorf("index size = %d buckets / %d entries, want 4/4", st.Buckets, st.Entries)
	}
	s.ActiveDevicesAt(nil, t0, t0.Add(time.Hour))
	s.ActiveDevicesAt([]space.APID{"ap0"}, t0, t0.Add(time.Hour))
	st = s.OccupancyStats()
	if st.Lookups != 2 {
		t.Errorf("lookups = %d, want 2", st.Lookups)
	}
}

// TestActiveDevicesDuplicateEventsOneEntry: re-ingesting the same
// (device, AP, bucket) combination must not grow the index.
func TestActiveDevicesDuplicateEventsOneEntry(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		if _, err := s.Ingest([]event.Event{{Device: "d", AP: "ap", Time: t0.Add(time.Duration(i) * time.Second)}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.OccupancyStats(); st.Entries != 1 || st.Buckets != 1 {
		t.Errorf("10 same-bucket events produced %d entries / %d buckets, want 1/1", st.Entries, st.Buckets)
	}
}

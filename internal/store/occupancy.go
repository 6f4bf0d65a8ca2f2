package store

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// occupancyBucket is the width of the temporal occupancy index's time
// buckets. Ten minutes matches the default validity interval δ, so a
// typical neighbor window (±1 hour) touches about a dozen buckets.
const occupancyBucket = 10 * time.Minute

// occupancyIndex is a time-bucketed inverted index over the event logs:
// bucket → AP → the devices with at least one event at that AP inside the
// bucket. It serves ActiveDevicesAt in time proportional to the devices
// actually active in the window instead of a scan over every device log in
// the store.
//
// Devices appear by ordinal (deviceLog.ord, dense per store): each
// (bucket, AP) cell is a sorted slice of ordinals, a few bytes per entry, and
// a lookup unions the cells it touches through a mark array indexed by
// ordinal (occScratch) instead of building sets.
//
// The index is derived state: it is maintained incrementally on the ingest
// path (under the store's exclusive lock), rebuilt from the logs when
// restored from a segment manifest, and reconstructed naturally
// during WAL replay because replay goes through Ingest. It is never
// persisted.
//
// Membership is insensitive to event order, so out-of-order ingestion needs
// no special handling here; only the per-device verification of boundary
// buckets (see activeDevicesLocked) needs sorted logs.
type occupancyIndex struct {
	buckets map[int64]map[space.APID][]int32
	// entries counts distinct (bucket, AP, device) triples — the index's
	// resident size.
	entries int
}

func newOccupancyIndex() *occupancyIndex {
	return &occupancyIndex{
		buckets: make(map[int64]map[space.APID][]int32),
	}
}

// bucketOf maps a timestamp to its bucket ordinal (floor division, so
// pre-epoch times bucket consistently too).
func bucketOf(t time.Time) int64 {
	n := t.UnixNano()
	w := int64(occupancyBucket)
	b := n / w
	if n < 0 && n%w != 0 {
		b--
	}
	return b
}

// add records event e of the device with ordinal ord. Called with the
// store's exclusive lock held.
func (ix *occupancyIndex) add(e event.Event, ord int32) {
	b := bucketOf(e.Time)
	apm, ok := ix.buckets[b]
	if !ok {
		apm = make(map[space.APID][]int32)
		ix.buckets[b] = apm
	}
	// Ordinals follow first ingest, so a new member usually goes last.
	devs := apm[e.AP]
	if i, found := slices.BinarySearch(devs, ord); !found {
		apm[e.AP] = slices.Insert(devs, i, ord)
		ix.entries++
	}
}

// OccupancyStats reports the temporal occupancy index's shape and traffic.
type OccupancyStats struct {
	// Bucket is the bucket width.
	Bucket time.Duration `json:"bucket_nanos"`
	// Buckets is the number of non-empty time buckets; Entries counts
	// distinct (bucket, AP, device) triples.
	Buckets int `json:"buckets"`
	Entries int `json:"entries"`
	// Lookups counts ActiveDevicesAt calls.
	Lookups int64 `json:"lookups"`
}

// OccupancyStats returns the occupancy index's current size and counters.
func (s *Store) OccupancyStats() OccupancyStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return OccupancyStats{
		Bucket:  occupancyBucket,
		Buckets: len(s.occ.buckets),
		Entries: s.occ.entries,
		Lookups: s.occLookups.Load(),
	}
}

// ActiveDevicesAt returns the devices with at least one event in
// [start, end] at one of the given APs, sorted. aps == nil means "any AP";
// an empty non-nil slice matches nothing. Fine-grained neighbor discovery
// passes the APs whose region overlaps the query region, so only devices
// seen in that neighborhood are considered instead of filtering the whole
// campus after the fact.
func (s *Store) ActiveDevicesAt(aps []space.APID, start, end time.Time) []event.DeviceID {
	s.mu.RLock()
	if len(s.dirty) == 0 {
		out := s.activeDevicesLocked(aps, start, end)
		s.mu.RUnlock()
		return out
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Only logs knocked out of order get re-sorted: one out-of-order ingest
	// must not stall a neighbor lookup behind a pass over every log in the
	// store. (Deleting from the map inside the range is safe in Go;
	// ensureSorted removes each log it sorts.)
	for lg := range s.dirty {
		s.ensureSorted(lg)
	}
	return s.activeDevicesLocked(aps, start, end)
}

// occScratch is one lookup's working state, pooled so that a lookup
// allocates only its result: a mark per device ordinal and the ordinals the
// lookup touched. Marks are stamped relative to the lookup's generation gen —
// below gen untouched, gen seen only in a boundary bucket, gen+1 confirmed —
// so the array is never cleared between lookups.
type occScratch struct {
	mark    []uint32
	gen     uint32
	touched []int32
}

var occScratchPool = sync.Pool{New: func() any { return new(occScratch) }}

// begin starts a lookup over n device ordinals.
func (sc *occScratch) begin(n int) {
	if sc.gen >= math.MaxUint32-2 {
		clear(sc.mark)
		sc.gen = 0
	}
	sc.gen += 2
	if len(sc.mark) < n {
		sc.mark = append(sc.mark, make([]uint32, n-len(sc.mark))...)
	}
	sc.touched = sc.touched[:0]
}

// markAll raises each ordinal in devs to stamp st (sc.gen or sc.gen+1),
// recording the ordinals touched for the first time.
func (sc *occScratch) markAll(devs []int32, st uint32) {
	for _, o := range devs {
		switch m := sc.mark[o]; {
		case m < sc.gen:
			sc.mark[o] = st
			sc.touched = append(sc.touched, o)
		case m < st:
			sc.mark[o] = st
		}
	}
}

// activeDevicesLocked answers an active-devices lookup from the occupancy
// index, with a store lock held and all logs sorted. Devices found in an
// interior bucket (fully inside [start, end]) are confirmed outright;
// devices found only in the two boundary buckets — which may hold events
// just outside the window — are verified against their sorted log, so the
// result is exactly a brute-force scan's.
func (s *Store) activeDevicesLocked(aps []space.APID, start, end time.Time) []event.DeviceID {
	s.occLookups.Add(1)
	if end.Before(start) {
		return nil
	}
	ix := s.occ
	bs, be := bucketOf(start), bucketOf(end)

	sc := occScratchPool.Get().(*occScratch)
	defer occScratchPool.Put(sc)
	sc.begin(len(s.byOrd))
	collect := func(b int64) {
		apm, ok := ix.buckets[b]
		if !ok {
			return
		}
		st := sc.gen + 1
		if b == bs || b == be {
			st = sc.gen
		}
		if aps == nil {
			for _, devs := range apm {
				sc.markAll(devs, st)
			}
			return
		}
		for _, ap := range aps {
			sc.markAll(apm[ap], st)
		}
	}
	// A window much wider than the ingested history would walk mostly-empty
	// bucket ordinals; iterating the populated buckets is cheaper then.
	if span := be - bs + 1; span < 0 || span > int64(len(ix.buckets)) {
		for b := range ix.buckets {
			if b >= bs && b <= be {
				collect(b)
			}
		}
	} else {
		for b := bs; b <= be; b++ {
			collect(b)
		}
	}

	// Keep the confirmed ordinals, verifying the boundary-only ones.
	n := 0
	for _, o := range sc.touched {
		if sc.mark[o] == sc.gen && !s.deviceActiveInWindowLocked(s.byOrd[o], aps, start, end) {
			continue
		}
		sc.touched[n] = o
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]event.DeviceID, n)
	for i, o := range sc.touched[:n] {
		out[i] = s.byOrd[o].dev
	}
	slices.Sort(out)
	return out
}

// deviceActiveInWindowLocked reports whether a device has an event in
// [start, end] (at one of the given APs when aps is non-nil), across its
// head and sealed segments. Segment metadata prunes most decodes: segments
// disjoint from the window are skipped outright, and with no AP filter a
// segment endpoint inside the window confirms activity without decoding.
// Only boundary-straddling segments (or any overlap under an AP filter) are
// read, through the segment cache. An unreadable segment reads as holding
// no event, counted in SegmentStats.LookupErrors. Caller holds a store lock;
// the head is sorted.
func (s *Store) deviceActiveInWindowLocked(lg *deviceLog, aps []space.APID, start, end time.Time) bool {
	if windowHasAP(lg.head, aps, start, end) {
		return true
	}
	if len(lg.segs) == 0 || end.Before(start) {
		return false
	}
	startN, endN := clampedNanos(start), clampedNanos(end)
	for i := range lg.segs {
		m := &lg.segs[i]
		if m.MaxNanos < startN || m.MinNanos > endN {
			continue
		}
		// A segment endpoint inside the window guarantees an event inside
		// it (the endpoints are event times).
		if aps == nil && (m.MinNanos >= startN || m.MaxNanos <= endN) {
			return true
		}
		evs, err := s.segmentEvents(lg.dev, *m, nil)
		if err != nil {
			s.lookupErrors.Add(1)
			continue
		}
		if windowHasAP(evs, aps, start, end) {
			return true
		}
	}
	return false
}

// windowHasAP reports whether a sorted event slice has an event in
// [start, end], at one of the given APs when aps is non-nil.
func windowHasAP(evs []event.Event, aps []space.APID, start, end time.Time) bool {
	lo := sort.Search(len(evs), func(i int) bool { return !evs[i].Time.Before(start) })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].Time.After(end) })
	if lo >= hi {
		return false
	}
	if aps == nil {
		return true
	}
	for _, e := range evs[lo:hi] {
		for _, ap := range aps {
			if e.AP == ap {
				return true
			}
		}
	}
	return false
}

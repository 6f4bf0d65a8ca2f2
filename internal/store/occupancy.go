package store

import (
	"math"
	"slices"
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
// bucket → the (AP, device) pairs with at least one event inside the
// bucket. It serves ActiveDevicesAt in time proportional to the devices
// actually active in the window instead of a scan over every device log in
// the store.
//
// Both APs and devices appear by ordinal — the AP by its position in the
// store's AP dictionary, the device by deviceLog.ord — so a bucket is one
// sorted []uint64 of cells ap<<32 | device, 8 bytes per entry and no string
// anywhere. An AP's devices are the contiguous run of cells with its
// ordinal in the high half, found by binary search; a lookup unions the
// runs it touches through a mark array indexed by device ordinal
// (occScratch) instead of building sets.
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
	buckets map[int64][]uint64
	// entries counts distinct (bucket, AP, device) triples — the index's
	// resident size.
	entries int
}

func newOccupancyIndex() *occupancyIndex {
	return &occupancyIndex{buckets: make(map[int64][]uint64)}
}

// bucketOf maps Unix nanoseconds to their bucket ordinal (floor division,
// so pre-epoch times bucket consistently too).
func bucketOf(n int64) int64 {
	w := int64(occupancyBucket)
	b := n / w
	if n < 0 && n%w != 0 {
		b--
	}
	return b
}

// occCell is the index cell of AP ordinal ap and device ordinal dev.
func occCell(ap uint32, dev int32) uint64 { return uint64(ap)<<32 | uint64(uint32(dev)) }

// add records record r of the device with ordinal dev. Called with the
// store's exclusive lock held.
func (ix *occupancyIndex) add(r event.Rec, dev int32) {
	b := bucketOf(r.Nanos)
	cells := ix.buckets[b]
	// Device ordinals follow first ingest, so a new cell usually goes last
	// within its AP's run.
	c := occCell(r.AP, dev)
	if i, found := slices.BinarySearch(cells, c); !found {
		ix.buckets[b] = slices.Insert(cells, i, c)
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
// allocates only its result: the lookup's APs as ordinals, a mark per
// device ordinal and the ordinals the lookup touched. Marks are stamped
// relative to the lookup's generation gen — below gen untouched, gen seen
// only in a boundary bucket, gen+1 confirmed — so the array is never cleared
// between lookups.
type occScratch struct {
	aps     []uint32
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

// markAll raises the device of each cell to stamp st (sc.gen or sc.gen+1),
// recording the ordinals touched for the first time.
func (sc *occScratch) markAll(cells []uint64, st uint32) {
	for _, c := range cells {
		o := int32(uint32(c))
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
// index, with a store lock held and all logs sorted. The APs are mapped to
// dictionary ordinals once; an AP the store has never seen matches nothing.
// Devices found in an interior bucket (fully inside [start, end]) are
// confirmed outright; devices found only in the two boundary buckets —
// which may hold events just outside the window — are verified against
// their sorted log, so the result is exactly a brute-force scan's.
func (s *Store) activeDevicesLocked(aps []space.APID, start, end time.Time) []event.DeviceID {
	s.occLookups.Add(1)
	lo, hi, ok := windowNanos(start, end)
	if !ok {
		return nil
	}
	sc := occScratchPool.Get().(*occScratch)
	defer occScratchPool.Put(sc)
	anyAP := aps == nil
	sc.aps = sc.aps[:0]
	for _, ap := range aps {
		if o, ok := s.apOrd[ap]; ok {
			sc.aps = append(sc.aps, o)
		}
	}
	if !anyAP && len(sc.aps) == 0 {
		return nil
	}
	ix := s.occ
	bs, be := bucketOf(lo), bucketOf(hi)
	sc.begin(len(s.byOrd))
	collect := func(b int64) {
		cells, ok := ix.buckets[b]
		if !ok {
			return
		}
		st := sc.gen + 1
		if b == bs || b == be {
			st = sc.gen
		}
		if anyAP {
			sc.markAll(cells, st)
			return
		}
		for _, a := range sc.aps {
			i, _ := slices.BinarySearch(cells, occCell(a, 0))
			j := i
			for j < len(cells) && uint32(cells[j]>>32) == a {
				j++
			}
			sc.markAll(cells[i:j], st)
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
		if sc.mark[o] == sc.gen && !s.deviceActiveInWindowLocked(s.byOrd[o], anyAP, sc.aps, lo, hi) {
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

// deviceActiveInWindowLocked reports whether a device has an event with
// lo ≤ Nanos ≤ hi (at one of the AP ordinals aps unless anyAP), across its
// head and sealed segments. Segment metadata prunes most decodes: segments
// disjoint from the window are skipped outright, and with no AP filter a
// segment endpoint inside the window confirms activity without decoding.
// Only boundary-straddling segments (or any overlap under an AP filter) are
// read, through the segment cache. An unreadable segment reads as holding
// no event, counted in SegmentStats.LookupErrors. Caller holds a store lock;
// the head is sorted.
func (s *Store) deviceActiveInWindowLocked(lg *deviceLog, anyAP bool, aps []uint32, lo, hi int64) bool {
	if windowHasAP(lg.head, anyAP, aps, lo, hi) {
		return true
	}
	for i := range lg.segs {
		m := &lg.segs[i]
		if m.MaxNanos < lo || m.MinNanos > hi {
			continue
		}
		// A segment endpoint inside the window guarantees an event inside
		// it (the endpoints are event times).
		if anyAP && (m.MinNanos >= lo || m.MaxNanos <= hi) {
			return true
		}
		recs, err := s.segmentRecs(lg.dev, *m, nil)
		if err != nil {
			s.lookupErrors.Add(1)
			continue
		}
		if windowHasAP(recs, anyAP, aps, lo, hi) {
			return true
		}
	}
	return false
}

// windowHasAP reports whether a sorted record slice has a record with
// lo ≤ Nanos ≤ hi, at one of the AP ordinals aps unless anyAP.
func windowHasAP(recs []event.Rec, anyAP bool, aps []uint32, lo, hi int64) bool {
	i, j := searchWindow(recs, lo, hi)
	if i >= j {
		return false
	}
	if anyAP {
		return true
	}
	for _, r := range recs[i:j] {
		if slices.Contains(aps, r.AP) {
			return true
		}
	}
	return false
}

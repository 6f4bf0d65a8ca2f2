package store

import (
	"sort"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// occupancyBucket is the width of the temporal occupancy index's time
// buckets. Ten minutes matches the default validity interval δ, so a
// typical neighbor window (±1 hour) touches about a dozen buckets.
const occupancyBucket = 10 * time.Minute

// occupancyIndex is a time-bucketed inverted index over the event logs:
// bucket → AP → set of devices with at least one event at that AP inside
// the bucket. It serves ActiveDevices / ActiveDevicesAt in time proportional
// to the devices actually active in the window instead of a scan over every
// device log in the store.
//
// The index is derived state: it is maintained incrementally on the ingest
// path (under the store's exclusive lock), rebuilt from the logs when
// cloned or restored from a segment manifest, and reconstructed naturally
// during WAL replay because replay goes through Ingest. It is never
// persisted.
//
// Membership is insensitive to event order, so out-of-order ingestion needs
// no special handling here; only the per-device verification of boundary
// buckets (see activeDevicesLocked) needs sorted logs.
type occupancyIndex struct {
	buckets map[int64]map[space.APID]map[event.DeviceID]struct{}
	// entries counts distinct (bucket, AP, device) triples — the index's
	// resident size.
	entries int
}

func newOccupancyIndex() *occupancyIndex {
	return &occupancyIndex{
		buckets: make(map[int64]map[space.APID]map[event.DeviceID]struct{}),
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

// add records one event. Called with the store's exclusive lock held.
func (ix *occupancyIndex) add(e event.Event) {
	b := bucketOf(e.Time)
	apm, ok := ix.buckets[b]
	if !ok {
		apm = make(map[space.APID]map[event.DeviceID]struct{})
		ix.buckets[b] = apm
	}
	devs, ok := apm[e.AP]
	if !ok {
		devs = make(map[event.DeviceID]struct{})
		apm[e.AP] = devs
	}
	if _, ok := devs[e.Device]; !ok {
		devs[e.Device] = struct{}{}
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

	confirmed := make(map[event.DeviceID]struct{})
	candidates := make(map[event.DeviceID]struct{})
	collect := func(b int64) {
		apm, ok := ix.buckets[b]
		if !ok {
			return
		}
		boundary := b == bs || b == be
		addAll := func(devs map[event.DeviceID]struct{}) {
			for d := range devs {
				if boundary {
					candidates[d] = struct{}{}
				} else {
					confirmed[d] = struct{}{}
				}
			}
		}
		if aps == nil {
			for _, devs := range apm {
				addAll(devs)
			}
			return
		}
		for _, ap := range aps {
			if devs, ok := apm[ap]; ok {
				addAll(devs)
			}
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

	for d := range candidates {
		if _, ok := confirmed[d]; ok {
			continue
		}
		lg, ok := s.logs[d]
		if !ok {
			continue
		}
		if s.deviceActiveInWindowLocked(d, lg, aps, start, end) {
			confirmed[d] = struct{}{}
		}
	}
	if len(confirmed) == 0 {
		return nil
	}
	out := make([]event.DeviceID, 0, len(confirmed))
	for d := range confirmed {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// deviceActiveInWindowLocked reports whether a device has an event in
// [start, end] (at one of the given APs when aps is non-nil), across its
// head and sealed segments. Segment metadata prunes most decodes: segments
// disjoint from the window are skipped outright, and with no AP filter a
// segment endpoint inside the window confirms activity without decoding.
// Only boundary-straddling segments (or any overlap under an AP filter) are
// paged in, through the bounded cache. Caller holds a store lock; the head
// is sorted.
func (s *Store) deviceActiveInWindowLocked(d event.DeviceID, lg *deviceLog, aps []space.APID, start, end time.Time) bool {
	if windowHasAP(lg.head, aps, start, end) {
		return true
	}
	if len(lg.segs) == 0 || end.Before(start) {
		return false
	}
	startN, endN := clampedNanos(start), clampedNanos(end)
	for _, ref := range lg.segs {
		m := &ref.meta
		if m.MaxNanos < startN || m.MinNanos > endN {
			continue
		}
		// A segment endpoint inside the window guarantees an event inside
		// it (the endpoints are event times).
		if aps == nil && (m.MinNanos >= startN || m.MaxNanos <= endN) {
			return true
		}
		idx, err := s.blocksFor(d, ref)
		if err != nil {
			continue
		}
		blocks := idx.metas
		blo, bhi := blockRange(blocks, startN, endN)
		s.blockSkips.Add(int64(blo + len(blocks) - bhi))
		for bi := blo; bi < bhi; bi++ {
			// The same endpoint argument prunes at block granularity — but
			// only where the bound is an exact event time: every block's
			// MinNanos is, while MaxNanos is exact only for the final block
			// (earlier blocks carry their successor's min as a conservative
			// cap, see wal.BlockMeta).
			if aps == nil && (blocks[bi].MinNanos >= startN ||
				(bi == len(blocks)-1 && blocks[bi].MaxNanos <= endN)) {
				return true
			}
			evs, err := s.blockEventsCached(d, ref, idx, bi, nil)
			if err != nil {
				continue
			}
			if windowHasAP(evs, aps, start, end) {
				return true
			}
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

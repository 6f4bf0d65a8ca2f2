package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"locater/internal/cache"
	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/wal"
)

// Default segmentation parameters. 512 events per segment keeps payloads in
// the few-KiB range while a device with fleet-typical history still seals
// most of its log. Payloads are encoded as 64-event blocks, each with its own
// CRC, so corruption is refused block by block; reads decode a whole
// segment, the unit the decoded-segment cache holds segmentCacheSegments of.
const (
	DefaultSegmentMaxEvents   = 512
	DefaultSegmentBlockEvents = 64
	segmentCacheSegments      = 1024
)

// approxEventBytes is the decoded-segment cache's per-event weight: one
// event.Rec, 24 bytes (two int64s and a uint32 AP ordinal, padded). A record
// holds no strings, so this is the whole heap cost of a decoded event; a
// decoded event.Event weighed 64 bytes plus the strings it pointed at.
const approxEventBytes = int(unsafe.Sizeof(event.Rec{}))

// SegmentConfig configures the store's log-structured layout.
type SegmentConfig struct {
	// MaxEvents is the head size at which a device's mutable head is sealed
	// into an immutable compressed segment. Values below 1 select
	// DefaultSegmentMaxEvents; 1 is clamped to 2.
	MaxEvents int
	// Backend stores sealed segment payloads; nil selects the in-memory
	// compressed tier. Pass NewDiskSegmentBackend or NewMmapSegmentBackend
	// for a cold tier.
	Backend SegmentBackend
}

// ConfigureSegments applies a segmentation configuration. It must be called
// before any events are ingested or restored: sealed segments already
// reference the previous backend.
func (s *Store) ConfigureSegments(cfg SegmentConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count != 0 || len(s.logs) != 0 {
		return errors.New("store: ConfigureSegments on a non-empty store")
	}
	s.segMax = cfg.MaxEvents
	if s.segMax < 1 {
		s.segMax = DefaultSegmentMaxEvents
	}
	if s.segMax < 2 {
		s.segMax = 2
	}
	if cfg.Backend != nil {
		s.segBackend = cfg.Backend
	}
	return nil
}

// newSegmentCache builds the decoded-segment cache with its heap-bytes
// weigher attached, so SegmentStats can report the decoded working set the
// GC actually sees.
func newSegmentCache() *cache.Cache[segKey, []event.Rec] {
	c := cache.New[segKey, []event.Rec](segmentCacheSegments, func(k segKey) uint64 {
		return (cache.StringHash(k.dev) ^ k.seq) * 1099511628211
	})
	c.SetWeigher(func(recs []event.Rec) int64 { return int64(len(recs) * approxEventBytes) })
	return c
}

// CloseSegments closes the segment backend. Call once the store will no
// longer be read (page-ins need the backend).
func (s *Store) CloseSegments() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segBackend.Close()
}

// InvalidateSegmentCache drops every decoded segment in O(1) (epoch bump),
// releasing the decoded working set. Purely an operational control — the
// encoded payloads in the backend stay authoritative and are paged back in
// segment by segment on demand — used under memory pressure and by the
// cold-query benchmarks.
func (s *Store) InvalidateSegmentCache() {
	s.segCache.Invalidate()
}

// SyncSegments makes every sealed segment durable in the backend. The
// checkpoint path calls it before publishing a manifest that references the
// segments: a manifest must never point at bytes that could vanish in a
// crash.
func (s *Store) SyncSegments() error {
	return s.segBackend.Sync()
}

// viewPayload runs fn over a segment's encoded payload, borrowing it
// zero-copy from a ViewBackend (the slice may alias a memory mapping and
// must not escape fn) and falling back to a heap copy for plain backends.
func (s *Store) viewPayload(d event.DeviceID, seq uint64, fn func(payload []byte) error) error {
	if vb, ok := s.segBackend.(ViewBackend); ok {
		return vb.View(d, seq, fn)
	}
	p, err := s.segBackend.Get(d, seq)
	if err != nil {
		return err
	}
	return fn(p)
}

// segmentRecs returns a sealed segment's decoded records through the
// bounded decoded-segment cache, paging the whole payload in from the
// backend on a miss. The returned slice is shared and immutable: callers
// must not mutate it, and non-copying callers must not let it escape the
// store lock. decoded, when non-nil, accrues the encoded bytes actually
// decoded (zero on a cache hit) — the point-lookup paths use it to measure
// their decode traffic. Errors are not cached, so a corrupt segment is
// refused on every access.
func (s *Store) segmentRecs(d event.DeviceID, m wal.SegmentMeta, decoded *int64) ([]event.Rec, error) {
	return s.segCache.GetOrCompute(segKey{d, m.Seq}, func() ([]event.Rec, error) {
		s.pageIns.Add(1)
		recs, err := s.decodeSegmentRecs(d, m, make([]event.Rec, 0, m.Count), s.apOrdinal)
		if err == nil && decoded != nil {
			*decoded += int64(m.Bytes)
		}
		return recs, err
	})
}

// encodeSegmentVerified encodes recs in DefaultSegmentBlockEvents blocks and
// round-trip verifies the payload — the decode re-parses the trailer and
// re-checks every CRC, so a mis-encoded segment is caught before it reaches
// the backend.
func (s *Store) encodeSegmentVerified(recs []event.Rec) ([]byte, error) {
	payload, _ := wal.EncodeSegmentRecs(nil, recs, s.apIDs, DefaultSegmentBlockEvents)
	decoded, err := wal.DecodeSegmentRecs(payload, make([]event.Rec, 0, len(recs)), s.apOrdinal)
	if err == nil && !slices.Equal(decoded, recs) {
		err = fmt.Errorf("store: segment round-trip decoded %d records unequal to the %d encoded", len(decoded), len(recs))
	}
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// sealLocked compresses the device's head into an immutable segment: sort,
// encode (segment AP dictionary + delta-of-delta timestamps, with a block
// index in the trailer), verify by round-trip decode, store the payload in
// the backend, register the metadata, and start a fresh head. The segment
// cache is deliberately NOT warmed from the seal: it holds what queries
// read, so write-heavy devices that are never queried cannot evict the read
// working set, and an idle store's footprint is the encoded payloads alone.
// Caller holds the exclusive lock.
//
// On failure the head is simply kept: the next append re-attempts the seal,
// and an over-full head is only a memory regression, never a correctness
// one.
func (s *Store) sealLocked(d event.DeviceID, lg *deviceLog) {
	s.ensureSorted(lg)
	payload, err := s.encodeSegmentVerified(lg.head)
	if err != nil {
		s.sealFails.Add(1)
		return
	}
	seq := lg.nextSeq
	if err := s.segBackend.Put(d, seq, payload); err != nil {
		s.sealFails.Add(1)
		return
	}
	lg.nextSeq++
	lg.segs = append(lg.segs, wal.SegmentMeta{
		Seq:      seq,
		Count:    len(lg.head),
		MinNanos: lg.head[0].Nanos,
		MaxNanos: lg.head[len(lg.head)-1].Nanos,
		Bytes:    len(payload),
	})
	lg.segEvents += len(lg.head)
	s.segCount++
	s.segEvents += len(lg.head)
	s.segBytes += int64(len(payload))
	s.seals.Add(1)
	lg.head = nil
}

// decodeSegmentRecs appends a segment's full decode to dst, borrowing the
// payload from the backend and mapping its AP dictionary through ord
// (apOrdinal everywhere but RestoreSegments, which assigns ordinals). Bulk
// paths (materialization, occupancy rebuild, compaction) use it directly
// rather than through the segment cache, so a one-off full read doesn't
// evict the query working set.
func (s *Store) decodeSegmentRecs(d event.DeviceID, m wal.SegmentMeta, dst []event.Rec, ord func(space.APID) (uint32, error)) ([]event.Rec, error) {
	var n int64
	out := dst
	err := s.viewPayload(d, m.Seq, func(payload []byte) error {
		n = int64(len(payload))
		var derr error
		out, derr = wal.DecodeSegmentRecs(payload, dst, ord)
		return derr
	})
	if err != nil {
		s.decodeFails.Add(1)
		return dst, fmt.Errorf("store: decoding segment %d for device %s: %w", m.Seq, d, err)
	}
	// A payload torn exactly at a block boundary decodes cleanly to a prefix
	// (it is byte-identical to a valid shorter segment), and an intact
	// payload filed under the wrong seq decodes cleanly too; only the
	// manifest's count and time bounds can tell, so check them.
	if got := len(out) - len(dst); got != m.Count {
		s.decodeFails.Add(1)
		return dst, fmt.Errorf("store: segment %d for device %s decoded %d events, manifest says %d", m.Seq, d, got, m.Count)
	}
	if lo, hi := out[len(dst)].Nanos, out[len(out)-1].Nanos; lo != m.MinNanos || hi != m.MaxNanos {
		s.decodeFails.Add(1)
		return dst, fmt.Errorf("store: segment %d for device %s spans [%d, %d], manifest says [%d, %d]", m.Seq, d, lo, hi, m.MinNanos, m.MaxNanos)
	}
	s.decodedBytes.Add(n)
	return out, nil
}

// materializeLocked appends the device's full log — every sealed segment
// plus the head — to out in time order. Segments are decoded straight into
// out without populating the segment cache. Caller holds a store lock and has
// sorted the head.
func (s *Store) materializeLocked(d event.DeviceID, lg *deviceLog, out []event.Rec) ([]event.Rec, error) {
	for _, m := range lg.segs {
		var err error
		out, err = s.decodeSegmentRecs(d, m, out, s.apOrdinal)
		if err != nil {
			return out, err
		}
	}
	out = append(out, lg.head...)
	if !recsSorted(out) {
		slices.SortFunc(out, event.Rec.Compare)
	}
	return out, nil
}

// nanoTime bounds within which time.Time round-trips through UnixNano.
// Stored events always fit (they round-trip through the WAL codec); query
// windows are clamped so comparisons against segment metadata stay correct
// for arbitrarily wide windows.
var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

func clampedNanos(t time.Time) int64 {
	if t.Before(minNanoTime) {
		return math.MinInt64
	}
	if t.After(maxNanoTime) {
		return math.MaxInt64
	}
	return t.UnixNano()
}

// windowNanos converts the window [start, end] to the inclusive range of
// Unix nanoseconds of the event times inside it; ok is false when it holds
// none (end before start, or a window wholly outside int64 nanoseconds).
func windowNanos(start, end time.Time) (lo, hi int64, ok bool) {
	if end.Before(start) || start.After(maxNanoTime) || end.Before(minNanoTime) {
		return 0, 0, false
	}
	return clampedNanos(start), clampedNanos(end), true
}

// searchWindow returns the [i, j) index range of records with
// lo ≤ Nanos ≤ hi in a sorted slice.
func searchWindow(recs []event.Rec, lo, hi int64) (int, int) {
	i := sort.Search(len(recs), func(k int) bool { return recs[k].Nanos >= lo })
	j := sort.Search(len(recs), func(k int) bool { return recs[k].Nanos > hi })
	return i, j
}

// recsSorted reports whether recs is sorted by the store's (Nanos, ID)
// order.
func recsSorted(recs []event.Rec) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Before(recs[i-1]) {
			return false
		}
	}
	return true
}

// scanBuf is the pooled scratch a segmented read assembles its window or
// point-lookup neighborhood into. Pooled per call (Get/Put around each use),
// so re-entrant reads — the fine stage scans candidate logs while holding
// results of an outer scan — each get their own buffer. evs holds a point
// lookup's neighborhood expanded into events; decoded accrues the encoded
// bytes a point lookup actually decoded (cache misses only).
type scanBuf struct {
	recs          []event.Rec
	evs           []event.Event
	before, after []int // neighborhoodLocked's segment visit orders
	runs          [][]event.Rec
	decoded       int64
}

var scanBufPool = sync.Pool{New: func() any { return new(scanBuf) }}

// mergeRuns appends the merge of k individually sorted, non-empty runs to
// out in the store's (Nanos, ID) order. The run list is kept sorted by head
// record; each step binary-searches how far the front run extends before
// the second run's head and copies that whole stretch. Runs that do not
// interleave — the common shape, since segments are sealed in rough time
// order — thus cost one wholesale copy each, and a log fragmented into
// thousands of tiny segments still merges in O(m) instead of re-sorting
// every window. The order is total (event IDs are unique per device), so
// the result is exactly what sorting the concatenation would produce.
func mergeRuns(out []event.Rec, runs [][]event.Rec) []event.Rec {
	// Insertion-sort the runs by head: they arrive in seal order, which is
	// already nearly sorted.
	for i := 1; i < len(runs); i++ {
		r := runs[i]
		j := i
		for ; j > 0 && r[0].Before(runs[j-1][0]); j-- {
			runs[j] = runs[j-1]
		}
		runs[j] = r
	}
	for len(runs) > 1 {
		r, next := runs[0], runs[1][0]
		// Everything in r strictly before the next run's head is safe to
		// emit wholesale. The heads are ordered, so cut ≥ 1: progress is
		// guaranteed.
		cut := sort.Search(len(r), func(j int) bool { return next.Before(r[j]) })
		out = append(out, r[:cut]...)
		if cut == len(r) {
			runs = runs[1:]
			continue
		}
		// Re-position the remainder by its new head.
		r = r[cut:]
		i := 1
		for ; i < len(runs) && runs[i][0].Before(r[0]); i++ {
			runs[i-1] = runs[i]
		}
		runs[i-1] = r
	}
	if len(runs) == 1 {
		out = append(out, runs[0]...)
	}
	return out
}

// scanWindowLocked is the ScanEvents core: it assembles the device's
// records in [start, end] and hands them to fn. Each segment whose metadata
// overlaps the window contributes the window's stretch of its cached
// decode, and the runs plus the head are k-way merged (see mergeRuns) into
// a pooled buffer. Zero-copy fast paths cover the no-segments and
// single-source cases. On a page-in or decode failure the scan degrades to
// an empty window — the corrupt segment is refused, never served — with the
// failure counted in SegmentStats. Caller holds a store lock and has sorted
// the head.
func (s *Store) scanWindowLocked(d event.DeviceID, lg *deviceLog, start, end time.Time, fn func([]event.Rec)) {
	lo, hi, ok := windowNanos(start, end)
	if !ok {
		fn(nil)
		return
	}
	hl, hh := searchWindow(lg.head, lo, hi)
	head := lg.head[hl:hh]
	nOver := 0
	for i := range lg.segs {
		if m := &lg.segs[i]; m.MaxNanos >= lo && m.MinNanos <= hi {
			nOver++
		}
	}
	if nOver == 0 {
		fn(head)
		return
	}
	bp := scanBufPool.Get().(*scanBuf)
	runs := bp.runs[:0]
	for i := range lg.segs {
		m := &lg.segs[i]
		if m.MaxNanos < lo || m.MinNanos > hi {
			continue
		}
		recs, err := s.segmentRecs(d, *m, nil)
		if err != nil {
			ok = false
			break
		}
		if i, j := searchWindow(recs, lo, hi); i < j {
			runs = append(runs, recs[i:j])
		}
	}
	out := bp.recs[:0]
	switch {
	case !ok:
		fn(nil)
	case len(runs) == 0:
		fn(head)
	case len(runs) == 1 && len(head) == 0:
		// Single-source window: served zero-copy from the cached segment.
		fn(runs[0])
	default:
		if len(head) > 0 {
			runs = append(runs, head)
		}
		out = mergeRuns(out, runs)
		fn(out)
	}
	// Drop the run views before pooling: they alias cached segment decodes,
	// which the pool must not pin.
	for i := range runs {
		runs[i] = nil
	}
	bp.recs, bp.runs = out, runs[:0]
	scanBufPool.Put(bp)
}

// appendNeighborhood appends to buf the records adjacent to tN in one
// sorted source: up to two at or before it and up to two after.
func appendNeighborhood(buf []event.Rec, recs []event.Rec, tN int64) []event.Rec {
	idx := sort.Search(len(recs), func(i int) bool { return recs[i].Nanos > tN })
	return append(buf, recs[max(idx-2, 0):min(idx+2, len(recs))]...)
}

// leqStats returns how many records in srcs have Nanos ≤ tN and the
// second-largest such time (math.MinInt64 when fewer than two).
func leqStats(tN int64, srcs ...[]event.Rec) (int, int64) {
	n := 0
	max1, max2 := int64(math.MinInt64), int64(math.MinInt64)
	for _, buf := range srcs {
		for i := range buf {
			en := buf[i].Nanos
			if en > tN {
				continue
			}
			n++
			if en >= max1 {
				max2, max1 = max1, en
			} else if en > max2 {
				max2 = en
			}
		}
	}
	return n, max2
}

// gtStats returns how many records in srcs have Nanos > tN and the
// second-smallest such time (math.MaxInt64 when fewer than two).
func gtStats(tN int64, srcs ...[]event.Rec) (int, int64) {
	n := 0
	min1, min2 := int64(math.MaxInt64), int64(math.MaxInt64)
	for _, buf := range srcs {
		for i := range buf {
			en := buf[i].Nanos
			if en <= tN {
				continue
			}
			n++
			if en <= min1 {
				min2, min1 = min1, en
			} else if en < min2 {
				min2 = en
			}
		}
	}
	return n, min2
}

// appendSegNeighborhood appends to buf the records adjacent to tN within
// one sealed segment, read from its cached decode.
func (s *Store) appendSegNeighborhood(d event.DeviceID, m wal.SegmentMeta, tN int64, buf []event.Rec, bp *scanBuf) ([]event.Rec, error) {
	recs, err := s.segmentRecs(d, m, &bp.decoded)
	if err != nil {
		return buf, err
	}
	return appendNeighborhood(buf, recs, tN), nil
}

// neighborhoodLocked assembles into bp the sorted set of records adjacent
// to t across every source (head + segments): at least the two nearest
// records on each side of t, drawn from whichever sources hold them.
//
// Timeline.At/APAt on time t only ever read the two events on each side of
// it — validity truncation uses the immediate neighbors and gap bounds use
// the straddling pair — so running them over this neighborhood reproduces
// the flat-log answer exactly. Segments whose time range overlaps t are
// always visited; segments
// entirely before (after) t are visited in decreasing-max (increasing-min)
// order and decoding stops as soon as the next segment provably cannot
// displace the two best candidates already found (ties keep decoding, so
// equal-time events still tie-break by ID). The head's neighbors go in
// last: when the head is newer than every segment, as in-order ingestion
// leaves it, the neighborhood is then already in event order and is not
// sorted again. Caller holds a store lock and has sorted the head.
func (s *Store) neighborhoodLocked(d event.DeviceID, lg *deviceLog, t time.Time, bp *scanBuf) ([]event.Rec, error) {
	s.pointLookups.Add(1)
	bp.decoded = 0
	defer func() { s.lookupDecodedBytes.Add(bp.decoded) }()
	tN := clampedNanos(t)
	var hb [4]event.Rec // two records on each side of t at most
	head := appendNeighborhood(hb[:0], lg.head, tN)
	buf := bp.recs[:0]
	before, after := bp.before[:0], bp.after[:0]
	for i := range lg.segs {
		m := &lg.segs[i]
		switch {
		case m.MaxNanos < tN:
			// Insertion sort by MaxNanos descending.
			j := len(before)
			before = append(before, i)
			for ; j > 0 && lg.segs[before[j-1]].MaxNanos < m.MaxNanos; j-- {
				before[j] = before[j-1]
			}
			before[j] = i
		case m.MinNanos > tN:
			// Insertion sort by MinNanos ascending.
			j := len(after)
			after = append(after, i)
			for ; j > 0 && lg.segs[after[j-1]].MinNanos > m.MinNanos; j-- {
				after[j] = after[j-1]
			}
			after[j] = i
		default:
			var err error
			buf, err = s.appendSegNeighborhood(d, lg.segs[i], tN, buf, bp)
			if err != nil {
				bp.recs, bp.before, bp.after = buf, before, after
				return nil, err
			}
		}
	}
	for _, i := range before {
		n, second := leqStats(tN, buf, head)
		if n >= 2 && lg.segs[i].MaxNanos < second {
			break
		}
		var err error
		buf, err = s.appendSegNeighborhood(d, lg.segs[i], tN, buf, bp)
		if err != nil {
			bp.recs, bp.before, bp.after = buf, before, after
			return nil, err
		}
	}
	for _, i := range after {
		n, second := gtStats(tN, buf, head)
		if n >= 2 && lg.segs[i].MinNanos > second {
			break
		}
		var err error
		buf, err = s.appendSegNeighborhood(d, lg.segs[i], tN, buf, bp)
		if err != nil {
			bp.recs, bp.before, bp.after = buf, before, after
			return nil, err
		}
	}
	buf = append(buf, head...)
	if !recsSorted(buf) {
		slices.SortFunc(buf, event.Rec.Compare)
	}
	bp.recs, bp.before, bp.after = buf, before, after
	return buf, nil
}

// RestoreSegments registers recovered segment metadata on an empty store —
// metadata only: no segment is decoded to restore it, which is what makes
// recovery incremental. Per-device sequence counters resume past the
// highest restored seq, and the occupancy index is rebuilt by streaming the
// segments — the one full read, which doubles as an integrity pass over the
// cold tier and enters every AP the segments name into the AP dictionary.
func (s *Store) RestoreSegments(manifest map[event.DeviceID][]wal.SegmentMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count != 0 || len(s.logs) != 0 {
		return errors.New("store: RestoreSegments on a non-empty store")
	}
	for dev, metas := range manifest {
		if len(metas) == 0 {
			continue
		}
		lg := s.newLogLocked(dev)
		lg.segs = append([]wal.SegmentMeta(nil), metas...)
		sort.Slice(lg.segs, func(i, j int) bool { return lg.segs[i].Seq < lg.segs[j].Seq })
		for _, m := range lg.segs {
			if m.Seq >= lg.nextSeq {
				lg.nextSeq = m.Seq + 1
			}
			lg.segEvents += m.Count
			s.segCount++
			s.segEvents += m.Count
			s.segBytes += int64(m.Bytes)
			minT, maxT := time.Unix(0, m.MinNanos).UTC(), time.Unix(0, m.MaxNanos).UTC()
			if s.count == 0 || minT.Before(s.minTime) {
				s.minTime = minT
			}
			if s.count == 0 || maxT.After(s.maxTime) {
				s.maxTime = maxT
			}
			s.count += m.Count
		}
	}
	s.segCache.Invalidate()
	intern := func(ap space.APID) (uint32, error) { return s.internAPLocked(ap), nil }
	var scratch []event.Rec
	for dev, lg := range s.logs {
		for _, m := range lg.segs {
			var err error
			scratch, err = s.decodeSegmentRecs(dev, m, scratch[:0], intern)
			if err != nil {
				return fmt.Errorf("store: restoring segment %d for device %s: %w", m.Seq, dev, err)
			}
			for _, r := range scratch {
				s.occ.add(r, lg.ord)
			}
		}
	}
	return nil
}

// LiveSegmentSeqs captures, per device, the segment seqs the store
// currently references plus a floor (the device's next unissued seq): any
// record sealed after this capture carries a seq at or above the floor and
// is unconditionally live. The checkpoint path unions this with the seqs
// referenced by retained snapshot manifests before asking the backend to
// reclaim dead records.
func (s *Store) LiveSegmentSeqs() map[event.DeviceID]LiveSegments {
	s.mu.RLock()
	defer s.mu.RUnlock()
	live := make(map[event.DeviceID]LiveSegments, len(s.logs))
	for dev, lg := range s.logs {
		ls := LiveSegments{Floor: lg.nextSeq}
		if len(lg.segs) > 0 {
			ls.Seqs = make([]uint64, len(lg.segs))
			for i, m := range lg.segs {
				ls.Seqs[i] = m.Seq
			}
		}
		live[dev] = ls
	}
	return live
}

// ReclaimSegments asks the backend to drop segment records that are neither
// referenced by the current store state nor by any of the given retained
// snapshot manifests (the fallback manifests crash recovery may still read
// — reclaiming their records would break recovery from an older snapshot).
// Returns the bytes reclaimed; zero with a nil error when the backend does
// not support reclamation. Call only after the current checkpoint has been
// published durably.
func (s *Store) ReclaimSegments(retained []map[event.DeviceID][]wal.SegmentMeta) (int64, error) {
	rb, ok := s.segBackend.(ReclaimableBackend)
	if !ok {
		return 0, nil
	}
	live := s.LiveSegmentSeqs()
	for _, manifest := range retained {
		for dev, metas := range manifest {
			ls := live[dev]
			for _, m := range metas {
				if !seqLive(m.Seq, ls) {
					ls.Seqs = append(ls.Seqs, m.Seq)
				}
			}
			live[dev] = ls
		}
	}
	return rb.Reclaim(live)
}

// CompactRuntSegments merges runt segments — sealed blocks holding fewer
// than MaxEvents/4 events, the debris of checkpoint-time partial seals and
// low-traffic devices — into their predecessor segment, provided the
// combined block still fits under MaxEvents. Compaction re-seals the merged
// events under a fresh sequence number and replaces the two refs with one,
// shrinking the per-device manifest. The superseded records are dropped
// from the cold tier by the next checkpoint's reclaim pass (see
// ReclaimSegments); until then last-wins recovery simply ignores them.
// Returns the number of merges performed. Failures leave the original refs
// untouched: compaction is a pure space optimization, never a correctness
// risk.
func (s *Store) CompactRuntSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	runt := s.segMax / 4
	if runt < 1 {
		runt = 1
	}
	merged := 0
	for d, lg := range s.logs {
		if len(lg.segs) < 2 {
			continue
		}
		out := make([]wal.SegmentMeta, 0, len(lg.segs))
		out = append(out, lg.segs[0])
		changed := false
		for i := 1; i < len(lg.segs); i++ {
			cur := lg.segs[i]
			prev := out[len(out)-1]
			if cur.Count >= runt || prev.Count+cur.Count > s.segMax {
				out = append(out, cur)
				continue
			}
			m, ok := s.mergeSegmentsLocked(d, lg, prev, cur)
			if !ok {
				out = append(out, cur)
				continue
			}
			out[len(out)-1] = m
			changed = true
			merged++
		}
		if changed {
			lg.segs = out
		}
	}
	return merged
}

// mergeSegmentsLocked re-seals two adjacent segments as one: decode both,
// sort by (Nanos, ID) (out-of-order ingest means ranges can overlap),
// encode under the fixed block layout, and store under a fresh sequence
// number.
// Caller holds the exclusive lock and splices the returned metadata in place
// of the pair.
func (s *Store) mergeSegmentsLocked(d event.DeviceID, lg *deviceLog, a, b wal.SegmentMeta) (wal.SegmentMeta, bool) {
	recs, err := s.decodeSegmentRecs(d, a, make([]event.Rec, 0, a.Count+b.Count), s.apOrdinal)
	if err == nil {
		recs, err = s.decodeSegmentRecs(d, b, recs, s.apOrdinal)
	}
	if err != nil {
		s.compactFails.Add(1)
		return wal.SegmentMeta{}, false
	}
	if !recsSorted(recs) {
		slices.SortFunc(recs, event.Rec.Compare)
	}
	payload, err := s.encodeSegmentVerified(recs)
	if err != nil {
		s.compactFails.Add(1)
		return wal.SegmentMeta{}, false
	}
	seq := lg.nextSeq
	if err := s.segBackend.Put(d, seq, payload); err != nil {
		s.compactFails.Add(1)
		return wal.SegmentMeta{}, false
	}
	lg.nextSeq++
	s.segCount--
	s.segBytes += int64(len(payload)) - int64(a.Bytes) - int64(b.Bytes)
	s.compactions.Add(1)
	return wal.SegmentMeta{
		Seq:      seq,
		Count:    len(recs),
		MinNanos: recs[0].Nanos,
		MaxNanos: recs[len(recs)-1].Nanos,
		Bytes:    len(payload),
	}, true
}

// CheckpointState is the store's durable state in incremental-snapshot
// form: the mutable heads in full plus a manifest of sealed segments —
// metadata only, since the segment payloads are already durable in the
// backend (SyncSegments). It shares nothing with the live store.
type CheckpointState struct {
	NextID   int64
	Deltas   map[event.DeviceID]time.Duration
	Heads    map[event.DeviceID][]event.Event
	Segments map[event.DeviceID][]wal.SegmentMeta
}

// CheckpointState captures the store's durable state for an incremental
// checkpoint. It never materializes sealed segments: capture cost is proportional to the mutable heads, not total history.
func (s *Store) CheckpointState() CheckpointState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := CheckpointState{
		NextID:   s.nextID,
		Deltas:   make(map[event.DeviceID]time.Duration, len(s.deltas)),
		Heads:    make(map[event.DeviceID][]event.Event, len(s.logs)),
		Segments: make(map[event.DeviceID][]wal.SegmentMeta),
	}
	for d, dl := range s.deltas {
		st.Deltas[d] = dl
	}
	for dev, lg := range s.logs {
		s.ensureSorted(lg)
		if len(lg.head) > 0 {
			st.Heads[dev] = s.appendEvents(make([]event.Event, 0, len(lg.head)), dev, lg.head)
		}
		if len(lg.segs) > 0 {
			st.Segments[dev] = append([]wal.SegmentMeta(nil), lg.segs...)
		}
	}
	return st
}

// SegmentStats reports the log-structured layout's shape and traffic.
type SegmentStats struct {
	// MaxEvents is the seal threshold, BlockEvents the block size payloads
	// are encoded in (DefaultSegmentBlockEvents).
	MaxEvents   int `json:"max_events"`
	BlockEvents int `json:"block_events"`
	// ColdTier reports whether sealed payloads live on disk (a persistent
	// backend) rather than in memory.
	ColdTier bool `json:"cold_tier"`
	// Segments / SegmentEvents / HeadEvents split the store's resident
	// shape; EncodedBytes is the compressed size of all sealed payloads.
	Segments      int   `json:"segments"`
	SegmentEvents int   `json:"segment_events"`
	HeadEvents    int   `json:"head_events"`
	EncodedBytes  int64 `json:"encoded_bytes"`
	// Seals / SealFailures count seal attempts; PageIns counts segment
	// decodes from the backend (segment-cache misses), CacheHits the reads
	// served without one. DecodedBytes is the encoded bytes decoded, by
	// page-ins and by bulk reads. DecodeFailures counts refused decodes
	// (corrupt or missing payloads).
	Seals          int64 `json:"seals"`
	SealFailures   int64 `json:"seal_failures"`
	PageIns        int64 `json:"page_ins"`
	DecodedBytes   int64 `json:"decoded_bytes"`
	CacheHits      int64 `json:"cache_hits"`
	CacheSize      int   `json:"cache_size"`
	CacheCapacity  int   `json:"cache_capacity"`
	DecodeFailures int64 `json:"decode_failures"`
	// LookupErrors counts lookups that met an unreadable segment and
	// answered as if it held no events: CurrentAP (offline),
	// LastEventAtOrBefore (none), and neighbor discovery's window check
	// (inactive). At returns the error instead.
	LookupErrors int64 `json:"lookup_errors"`
	// CachedBytes approximates the heap bytes held by the decoded-segment
	// cache — the GC-visible decoded working set, as opposed to
	// Backend.MappedBytes which the OS owns.
	CachedBytes int64 `json:"resident_bytes_heap"`
	// PointLookups counts segmented point lookups (At/CurrentAP/...);
	// LookupDecodedBytes the encoded bytes those lookups decoded (cache
	// misses only). Their ratio is the bytes-decoded-per-point-lookup the
	// memory benchmark gates.
	PointLookups       int64 `json:"point_lookups"`
	LookupDecodedBytes int64 `json:"lookup_decoded_bytes"`
	// BlockSkips and IndexLoads are retired and always 0: reads decode
	// whole segments and parse no block index of their own.
	BlockSkips int64 `json:"block_skips"`
	IndexLoads int64 `json:"index_loads"`
	// Compactions counts runt-segment merges performed at checkpoint;
	// CompactionFailures counts merges abandoned (decode or backend
	// errors), which leave the original segments in place.
	Compactions        int64 `json:"compactions"`
	CompactionFailures int64 `json:"compaction_failures"`
	// Backend reports storage-level stats — mmap residency and cold-tier
	// reclamation — for backends that expose them.
	Backend BackendStats `json:"backend"`
}

// SegmentStats returns the segmented layout's current shape and counters.
func (s *Store) SegmentStats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cst := s.segCache.Stats()
	st := SegmentStats{
		MaxEvents:          s.segMax,
		BlockEvents:        DefaultSegmentBlockEvents,
		ColdTier:           s.segBackend.Persistent(),
		Segments:           s.segCount,
		SegmentEvents:      s.segEvents,
		HeadEvents:         s.count - s.segEvents,
		EncodedBytes:       s.segBytes,
		Seals:              s.seals.Load(),
		SealFailures:       s.sealFails.Load(),
		PageIns:            s.pageIns.Load(),
		DecodedBytes:       s.decodedBytes.Load(),
		CacheHits:          cst.Hits,
		CacheSize:          cst.Size,
		CacheCapacity:      cst.Capacity,
		CachedBytes:        cst.Weight,
		DecodeFailures:     s.decodeFails.Load(),
		LookupErrors:       s.lookupErrors.Load(),
		PointLookups:       s.pointLookups.Load(),
		LookupDecodedBytes: s.lookupDecodedBytes.Load(),
		Compactions:        s.compactions.Load(),
		CompactionFailures: s.compactFails.Load(),
	}
	if sb, ok := s.segBackend.(StatsBackend); ok {
		st.Backend = sb.BackendStats()
	}
	return st
}

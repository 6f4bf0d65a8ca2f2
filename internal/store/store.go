// Package store implements LOCATER's storage engine: an in-memory,
// time-indexed repository of WiFi connectivity events supporting batch and
// streaming ingestion, per-device timelines, time-window scans, and the gap
// lookups that the cleaning engine issues for every query.
//
// The store keeps one log per device in a log-structured layout: a small
// mutable head (a sorted slice absorbing fresh ingestion) plus a list of
// immutable, sorted, compressed segments (see internal/wal's columnar block
// codec) sealed whenever the head reaches a configurable size. Sealed
// payloads live in a SegmentBackend — in memory, or spilled to per-device
// files for a cold tier — and are decoded a segment at a time through a
// bounded segment cache, so resident memory scales with the working set instead of
// total history. Campus-scale deployments generate millions of tuples per
// day (paper Section 1), so all temporal lookups are binary searches plus
// metadata-pruned segment decodes, and ingestion amortizes sorting by
// buffering out-of-order arrivals in the head.
//
// Every event the store holds in memory — in a head or in a decoded segment
// — is an event.Rec: 24 bytes, no pointers, the device implicit in its log
// and the AP an ordinal into the store's AP dictionary (apIDs). The
// dictionary is the store's alone: segment payloads keep their own
// per-segment dictionaries and the write-ahead log keeps strings. The
// records are the only in-memory timeline: the point lookups (At,
// CurrentAP, LastEventAtOrBefore) and EstimateDeltas run internal/event's
// record kernels over them in place, as the scan kernels do (ScanEvents),
// and an event.Event is built only for an answer or where the API hands out
// copies (Events, EventsBetween, CheckpointState).
package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locater/internal/cache"
	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/wal"
)

// DefaultDelta is the fallback validity interval δ used for devices without
// a configured or estimated value. Ten minutes reflects the typical probe
// periodicity of mobile devices.
const DefaultDelta = 10 * time.Minute

// Backend is the durability hook behind the store: a write-ahead log that
// records every acknowledged mutation. The append methods are called with
// the store's exclusive lock held, before the mutation is applied in memory,
// and must only buffer (no fsync) so the lock stays cheap; an append error
// aborts the mutation entirely. Commit is called after the lock is released
// and blocks until everything appended so far is durable, so concurrent
// writers share one fsync (group commit). A Commit error means the mutation
// is applied in memory but not acknowledged as durable; callers see it as a
// failed write.
//
// Implementations must be safe for concurrent use. internal/wal provides the
// production implementation.
type Backend interface {
	// AppendEvents logs a batch of events exactly as acknowledged (IDs
	// already assigned).
	AppendEvents(evs []event.Event) error
	// AppendDelta logs a per-device validity interval δ(d).
	AppendDelta(d event.DeviceID, delta time.Duration) error
	// Commit makes every record appended so far durable.
	Commit() error
}

// Store is an in-memory event repository. It is safe for concurrent use:
// reads take a shared lock in the common case (all heads sorted), so
// concurrent queries scan the store in parallel; ingestion — and the lazy
// re-sort a read triggers after out-of-order ingestion — takes an exclusive
// lock.
type Store struct {
	mu sync.RWMutex

	// backend, when attached, receives every acknowledged mutation before
	// it is applied (write-ahead logging).
	backend Backend

	logs map[event.DeviceID]*deviceLog
	// byOrd lists the logs by ordinal (deviceLog.ord): the occupancy index
	// names devices by their position here.
	byOrd []*deviceLog

	// apIDs and apOrd are the AP dictionary: event.Rec.AP and the occupancy
	// index name an AP by its position in apIDs. Append-only; ordinals are
	// assigned under the exclusive lock (Ingest, RestoreSegments) and read
	// under either lock. Every AP of a sealed segment entered the dictionary
	// before the segment was sealed or restored, so a read-path decode only
	// looks ordinals up (apOrdinal).
	apIDs []space.APID
	apOrd map[space.APID]uint32

	// deltas holds per-device validity intervals; defaultDelta applies to
	// devices not present.
	deltas       map[event.DeviceID]time.Duration
	defaultDelta time.Duration

	nextID int64

	// dirty holds the device logs whose heads were knocked out of time
	// order by out-of-order ingestion: read paths test "everything sorted"
	// in O(1) via len(dirty), and the lazy re-sort touches exactly these
	// logs instead of iterating every log in the store.
	dirty map[*deviceLog]struct{}
	// resorts counts actual lazy re-sorts (one per dirtied log), so tests
	// can assert the re-sort scope.
	resorts int64

	// Segmented layout (see segment.go): segMax is the seal threshold,
	// segBackend stores sealed payloads, segCache bounds the decoded-segment
	// working set. segCount/segEvents/segBytes track the sealed shape; the
	// atomics count seal and page-in traffic (bumped under the shared lock).
	segMax       int
	segBackend   SegmentBackend
	segCache     *cache.Cache[segKey, []event.Rec]
	segCount     int
	segEvents    int
	segBytes     int64
	seals        atomic.Int64
	sealFails    atomic.Int64
	pageIns      atomic.Int64
	decodeFails  atomic.Int64
	compactions  atomic.Int64
	compactFails atomic.Int64
	// decodedBytes counts encoded bytes decoded; pointLookups /
	// lookupDecodedBytes isolate point-lookup decode traffic.
	decodedBytes       atomic.Int64
	pointLookups       atomic.Int64
	lookupDecodedBytes atomic.Int64
	// lookupErrors counts lookups that answered around an unreadable
	// segment (see SegmentStats.LookupErrors).
	lookupErrors atomic.Int64

	// occ is the temporal occupancy index serving ActiveDevicesAt.
	occ *occupancyIndex
	// occLookups counts index lookups. Atomic: bumped under the shared lock.
	occLookups atomic.Int64

	// bounds of all ingested data.
	minTime time.Time
	maxTime time.Time
	count   int
}

// deviceLog is one device's log-structured history: sealed immutable
// segments (in seal order, each internally sorted) plus the mutable head.
// Segments may overlap each other and the head in time when ingestion was
// out of order across a seal boundary; read paths merge-and-sort windows
// that actually interleave.
type deviceLog struct {
	dev event.DeviceID
	// ord is the log's dense per-store ordinal, its name in the occupancy
	// index (see newLogLocked).
	ord int32

	head   []event.Rec // mutable tail, sorted by (Nanos, ID) when sorted
	sorted bool

	segs      []wal.SegmentMeta // in seal order
	segEvents int
	nextSeq   uint64 // next segment sequence number (1-based)
}

// New creates an empty store with the given default validity interval δ.
// A non-positive defaultDelta falls back to DefaultDelta. Segmentation
// starts at the defaults (in-memory compressed tier, DefaultSegmentMaxEvents
// seal threshold); ConfigureSegments adjusts it before first ingest.
func New(defaultDelta time.Duration) *Store {
	if defaultDelta <= 0 {
		defaultDelta = DefaultDelta
	}
	return &Store{
		logs:         make(map[event.DeviceID]*deviceLog),
		deltas:       make(map[event.DeviceID]time.Duration),
		defaultDelta: defaultDelta,
		nextID:       1,
		dirty:        make(map[*deviceLog]struct{}),
		apOrd:        make(map[space.APID]uint32),
		occ:          newOccupancyIndex(),
		segMax:       DefaultSegmentMaxEvents,
		segBackend:   NewMemorySegmentBackend(),
		segCache:     newSegmentCache(),
	}
}

// newLogLocked creates device d's empty log under the next ordinal. Every
// log is created here: by Ingest and RestoreSegments. Caller holds the
// exclusive lock.
func (s *Store) newLogLocked(d event.DeviceID) *deviceLog {
	lg := &deviceLog{dev: d, ord: int32(len(s.byOrd)), sorted: true, nextSeq: 1}
	s.logs[d] = lg
	s.byOrd = append(s.byOrd, lg)
	return lg
}

// internAPLocked returns ap's dictionary ordinal, assigning the next one
// when ap is new. Caller holds the exclusive lock.
func (s *Store) internAPLocked(ap space.APID) uint32 {
	if o, ok := s.apOrd[ap]; ok {
		return o
	}
	o := uint32(len(s.apIDs))
	s.apIDs = append(s.apIDs, ap)
	s.apOrd[ap] = o
	return o
}

// apOrdinal resolves an AP a sealed payload names to its dictionary
// ordinal. The dictionary holds every AP of every segment the store sealed
// or restored, so an unknown AP marks a payload that is not the one the
// store wrote, and its decode is refused. Caller holds a store lock.
func (s *Store) apOrdinal(ap space.APID) (uint32, error) {
	if o, ok := s.apOrd[ap]; ok {
		return o, nil
	}
	return 0, fmt.Errorf("store: segment names AP %q the store has never seen", ap)
}

// appendEvents appends recs of device d to out as events. Caller holds a
// store lock.
func (s *Store) appendEvents(out []event.Event, d event.DeviceID, recs []event.Rec) []event.Event {
	for _, r := range recs {
		out = append(out, r.Event(d, s.apIDs))
	}
	return out
}

// AttachBackend sets the durability backend; nil detaches. Attach during
// setup, after any recovered state has been restored (so replayed mutations
// are not re-logged) and before traffic is served.
func (s *Store) AttachBackend(b Backend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backend = b
}

// SetDelta registers a device-specific validity interval δ(d).
func (s *Store) SetDelta(d event.DeviceID, delta time.Duration) error {
	if delta <= 0 {
		return fmt.Errorf("store: non-positive delta %v for device %s", delta, d)
	}
	s.mu.Lock()
	if s.backend != nil {
		if err := s.backend.AppendDelta(d, delta); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("store: logging delta: %w", err)
		}
	}
	s.deltas[d] = delta
	b := s.backend
	s.mu.Unlock()
	if b != nil {
		if err := b.Commit(); err != nil {
			return fmt.Errorf("store: committing delta: %w", err)
		}
	}
	return nil
}

// Delta returns the validity interval for a device (the configured value or
// the default).
func (s *Store) Delta(d event.DeviceID) time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.deltaLocked(d)
}

// deltaLocked is Delta with a store lock (shared or exclusive) already held.
func (s *Store) deltaLocked(d event.DeviceID) time.Duration {
	if dl, ok := s.deltas[d]; ok {
		return dl
	}
	return s.defaultDelta
}

// withDevice invokes fn with the device's log — head sorted — and validity
// interval while a store lock is held: a shared lock in the common case
// (the head is already sorted), an exclusive one only when a lazy sort is
// needed after out-of-order ingestion. fn must only read the log and must
// not retain any slice it derives from it. Reports whether the device
// exists.
func (s *Store) withDevice(d event.DeviceID, fn func(lg *deviceLog, delta time.Duration)) bool {
	s.mu.RLock()
	lg, ok := s.logs[d]
	if ok && lg.sorted {
		fn(lg, s.deltaLocked(d))
		s.mu.RUnlock()
		return true
	}
	s.mu.RUnlock()
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-fetch: the log may have grown between the lock hand-off.
	lg, ok = s.logs[d]
	if !ok {
		return false
	}
	s.ensureSorted(lg)
	fn(lg, s.deltaLocked(d))
	return true
}

// EstimateDeltas derives δ(d) for every device from its own records (see
// event.EstimateDelta) and registers the results. Devices with too little
// data keep the default. With a backend attached the estimated deltas are
// logged and committed as one group; the returned error reports a logging
// failure or a sealed segment that could not be materialized.
func (s *Store) EstimateDeltas(quantile float64, minD, maxD time.Duration) error {
	s.mu.Lock()
	var recs []event.Rec
	for dev, lg := range s.logs {
		s.ensureSorted(lg)
		var err error
		recs, err = s.materializeLocked(dev, lg, recs[:0])
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("store: materializing device %s: %w", dev, err)
		}
		d := event.EstimateDelta(recs, quantile, minD, maxD, s.defaultDelta)
		if s.backend != nil {
			if err := s.backend.AppendDelta(dev, d); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("store: logging delta: %w", err)
			}
		}
		s.deltas[dev] = d
	}
	b := s.backend
	s.mu.Unlock()
	if b != nil {
		if err := b.Commit(); err != nil {
			return fmt.Errorf("store: committing deltas: %w", err)
		}
	}
	return nil
}

// ErrInvalidEvent is wrapped by every Ingest rejection that is the caller's
// fault (an event without a device, an AP or a timestamp, or with a
// timestamp the store cannot keep); any other Ingest error is a durability
// failure of the backend.
var ErrInvalidEvent = errors.New("store: invalid event")

// TimeFits reports whether t survives the round trip through Unix
// nanoseconds, the form the store, its segments and the write-ahead log
// keep times in: 1677-09-21 00:12:43.145224192 to 2262-04-11
// 23:47:16.854775807 UTC, bounds included.
func TimeFits(t time.Time) bool {
	return !t.Before(event.MinTime) && !t.After(event.MaxTime)
}

// ValidateEvents returns an ErrInvalidEvent error for the first event
// without a device, an AP or a timestamp, or whose timestamp does not fit
// int64 nanoseconds (TimeFits), and nil when every event is valid. Ingest
// runs it on the whole batch before applying anything; the engine runs it
// before its cleansing stage and cache maintenance too, so a rejected batch
// changes no state anywhere.
func ValidateEvents(events []event.Event) error {
	for _, e := range events {
		if e.Device == "" {
			return fmt.Errorf("%w: empty device at %v", ErrInvalidEvent, e.Time)
		}
		if e.AP == "" {
			return fmt.Errorf("%w: empty AP for device %s at %v", ErrInvalidEvent, e.Device, e.Time)
		}
		if e.Time.IsZero() {
			return fmt.Errorf("%w: zero timestamp for device %s", ErrInvalidEvent, e.Device)
		}
		if !TimeFits(e.Time) {
			return fmt.Errorf("%w: timestamp %v for device %s outside int64 nanoseconds", ErrInvalidEvent, e.Time, e.Device)
		}
	}
	return nil
}

// Ingest adds a batch of events. Events with ID == 0 receive fresh sequence
// numbers. Returns the number of events added. The whole batch is validated
// before anything is appended, so a rejected batch leaves the store
// untouched (all-or-nothing). With a backend attached the batch is logged —
// exactly as acknowledged, IDs included — before the in-memory apply, and
// Ingest returns only after the backend reports the batch durable. Heads
// that reach the seal threshold are compressed into immutable segments on
// the spot.
func (s *Store) Ingest(events []event.Event) (int, error) {
	if err := ValidateEvents(events); err != nil {
		return 0, err
	}
	s.mu.Lock()
	// Assign IDs on a copy first: the batch must reach the write-ahead log
	// exactly as acknowledged, and a failed log append must leave both the
	// event logs and the nextID counter untouched. Times are kept in UTC,
	// the zone log and segment decoding return: an answer reads the wall
	// clock of stored times, so it must not change across a restart.
	batch := make([]event.Event, len(events))
	copy(batch, events)
	nid := s.nextID
	for i := range batch {
		batch[i].Time = batch[i].Time.UTC()
		if batch[i].ID == 0 {
			batch[i].ID = nid
		}
		if batch[i].ID >= nid {
			nid = batch[i].ID + 1
		}
	}
	if s.backend != nil {
		if err := s.backend.AppendEvents(batch); err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("store: logging batch: %w", err)
		}
	}
	s.nextID = nid
	for _, e := range batch {
		lg, ok := s.logs[e.Device]
		if !ok {
			lg = s.newLogLocked(e.Device)
		}
		r := event.Rec{Nanos: e.Time.UnixNano(), ID: e.ID, AP: s.internAPLocked(e.AP)}
		// Maintain sortedness cheaply: appending in time order is the
		// common case for streaming ingestion.
		if lg.sorted && len(lg.head) > 0 && r.Before(lg.head[len(lg.head)-1]) {
			lg.sorted = false
			s.dirty[lg] = struct{}{}
		}
		lg.head = append(lg.head, r)
		s.occ.add(r, lg.ord)
		if s.count == 0 || e.Time.Before(s.minTime) {
			s.minTime = e.Time
		}
		if s.count == 0 || e.Time.After(s.maxTime) {
			s.maxTime = e.Time
		}
		s.count++
		if len(lg.head) >= s.segMax {
			s.sealLocked(e.Device, lg)
		}
	}
	b := s.backend
	s.mu.Unlock()
	if b != nil {
		// The durability wait happens outside the store lock so queries and
		// further appends proceed while the log syncs; concurrent batches
		// share one fsync (group commit).
		if err := b.Commit(); err != nil {
			return 0, fmt.Errorf("store: committing batch: %w", err)
		}
	}
	return len(batch), nil
}

// ensureSorted re-sorts a head after out-of-order ingestion and maintains
// the store's dirty-log set. Callers must hold the exclusive lock.
func (s *Store) ensureSorted(lg *deviceLog) {
	if !lg.sorted {
		slices.SortFunc(lg.head, event.Rec.Compare)
		lg.sorted = true
		delete(s.dirty, lg)
		s.resorts++
	}
}

// NumEvents returns the total number of stored events.
func (s *Store) NumEvents() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// NumDevices returns the number of distinct devices seen.
func (s *Store) NumDevices() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.logs)
}

// TimeBounds returns the earliest and latest event timestamps. ok is false
// for an empty store.
func (s *Store) TimeBounds() (min, max time.Time, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.count == 0 {
		return time.Time{}, time.Time{}, false
	}
	return s.minTime, s.maxTime, true
}

// Devices returns all device IDs in sorted order.
func (s *Store) Devices() []event.DeviceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]event.DeviceID, 0, len(s.logs))
	for d := range s.logs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Events returns a copy of a device's full event log in time order,
// materializing sealed segments. A segment that cannot be paged in yields a
// nil slice (and a DecodeFailures bump) rather than a partial log.
func (s *Store) Events(d event.DeviceID) []event.Event {
	var out []event.Event
	s.withDevice(d, func(lg *deviceLog, _ time.Duration) {
		recs, err := s.materializeLocked(d, lg, make([]event.Rec, 0, len(lg.head)+lg.segEvents))
		if err == nil {
			out = s.appendEvents(make([]event.Event, 0, len(recs)), d, recs)
		}
	})
	return out
}

// ScanEvents invokes fn once with the device's events with start ≤ t ≤ end
// as records in (Nanos, ID) order, the AP dictionary their AP ordinals
// index (recs[i] was logged at aps[recs[i].AP]), and the device's validity
// interval δ. fn runs while a store lock is held — a shared lock in the
// common case, so concurrent scans proceed in parallel. AP ordinals are
// store-wide, so records of different devices compare by AP as integers.
//
// fn must not retain or mutate recs, and must not assume anything about its
// backing storage: depending on where the window lives, the slice may alias
// the device's mutable head, a cached segment decode shared with concurrent
// readers, or a pooled scratch buffer that is reused the moment ScanEvents
// returns. aps is append-only and may be kept. Callers that need to keep the
// events must copy them (EventsBetween does exactly that). Reports whether
// the device exists; fn is invoked (possibly with an empty slice) exactly
// when it does. A window whose segments cannot be paged in (corrupt or
// missing cold-tier payload) is served as empty and counted in
// SegmentStats.DecodeFailures — a corrupt segment is refused, never served.
//
// This is the allocation-free read path the per-query kernels use: the fine
// stage's batched affinity sweep and the coarse stage's history statistics
// visit millions of events per second through it; windows inside a single
// source (head or one segment) are served zero-copy.
func (s *Store) ScanEvents(d event.DeviceID, start, end time.Time, fn func(recs []event.Rec, aps []space.APID, delta time.Duration)) bool {
	return s.withDevice(d, func(lg *deviceLog, delta time.Duration) {
		s.scanWindowLocked(d, lg, start, end, func(recs []event.Rec) { fn(recs, s.apIDs, delta) })
	})
}

// EventsBetween returns a copy of the device's events with
// start ≤ t ≤ end, via binary search.
func (s *Store) EventsBetween(d event.DeviceID, start, end time.Time) []event.Event {
	var out []event.Event
	s.ScanEvents(d, start, end, func(recs []event.Rec, _ []space.APID, _ time.Duration) {
		if len(recs) > 0 {
			out = s.appendEvents(make([]event.Event, 0, len(recs)), d, recs)
		}
	})
	return out
}

// At classifies time t for device d as event.At does: inside a validity
// interval, inside a gap, or unknown (before first/after last event, or an
// unknown device), with the validity or gap returned by value. It is the
// store-level entry point the cleaning engine uses for every query. It
// reads only the records around t (see neighborhoodLocked) instead of
// materializing the history — for a segmented log at most a couple of
// segment decodes, all through the bounded cache. A lookup that hits no
// error allocates nothing.
func (s *Store) At(d event.DeviceID, t time.Time) (event.Validity, event.Gap, event.Where, error) {
	var v event.Validity
	var g event.Gap
	var w event.Where
	var err error
	s.withDevice(d, func(lg *deviceLog, delta time.Duration) {
		if delta <= 0 {
			err = fmt.Errorf("store: non-positive validity interval %v for device %s", delta, d)
			return
		}
		bp := scanBufPool.Get().(*scanBuf)
		defer scanBufPool.Put(bp)
		recs, nerr := s.neighborhoodLocked(d, lg, t, bp)
		if nerr != nil {
			err = fmt.Errorf("store: reading device %s at %v: %w", d, t, nerr)
			return
		}
		v, g, w = event.At(d, recs, s.apIDs, delta, t)
	})
	return v, g, w, err
}

// LastEventAtOrBefore returns the device's latest event with Time ≤ t. An
// unreadable segment near t answers "none", counted in
// SegmentStats.LookupErrors.
func (s *Store) LastEventAtOrBefore(d event.DeviceID, t time.Time) (event.Event, bool) {
	var e event.Event
	var found bool
	s.withDevice(d, func(lg *deviceLog, _ time.Duration) {
		bp := scanBufPool.Get().(*scanBuf)
		defer scanBufPool.Put(bp)
		recs, err := s.neighborhoodLocked(d, lg, t, bp)
		if err != nil {
			s.lookupErrors.Add(1)
			return
		}
		if i := event.FirstAfter(recs, t); i > 0 {
			e, found = recs[i-1].Event(d, s.apIDs), true
		}
	})
	return e, found
}

// CurrentAP returns the AP the device is connected to at time t when t falls
// inside a validity interval; ok is false otherwise. This is the "online"
// test for neighbor devices at query time; it reads only the records around
// t (see neighborhoodLocked) because the fine stage issues it once per
// candidate neighbor of every query, and allocates nothing. An unreadable
// segment near t answers offline, counted in SegmentStats.LookupErrors.
func (s *Store) CurrentAP(d event.DeviceID, t time.Time) (space.APID, bool) {
	var ap space.APID
	var ok bool
	s.withDevice(d, func(lg *deviceLog, delta time.Duration) {
		if delta <= 0 {
			return
		}
		bp := scanBufPool.Get().(*scanBuf)
		defer scanBufPool.Put(bp)
		recs, err := s.neighborhoodLocked(d, lg, t, bp)
		if err != nil {
			s.lookupErrors.Add(1)
			return
		}
		var o uint32
		if o, ok = event.APAt(recs, delta, t); ok {
			ap = s.apIDs[o]
		}
	})
	return ap, ok
}

// AdvanceNextID raises the ID counter to at least n. Recovery calls it with
// the persisted counter after replaying events, so a recovered store never
// reissues an event ID — even if the counter had run ahead of the highest
// stored event ID. Values at or below the current counter are ignored (the
// counter is monotone).
func (s *Store) AdvanceNextID(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.nextID {
		s.nextID = n
	}
}

// Incremental gap sufficient statistics.
//
// Before this layer existed, every ingested event invalidated the device's
// trained model and all derived gap knowledge was recomputed from scratch on
// the next query. The statistics here are maintained incrementally, O(1)
// per ingested event, as decayed sufficient statistics of the device's gap
// structure: an exponentially-decayed event count, gap count, total gap
// duration, bootstrap inside/outside tallies (the τ_l/τ_h heuristics of
// Algorithm 1 applied as counters), and a log₂-bucketed gap-duration
// histogram. Decay is driven by EVENT time, not wall-clock time, which makes
// the accumulator deterministic: replaying the same events in the same
// order produces bitwise-identical statistics — that is the batch-recompute
// oracle (BatchDeviceStats) the property tests gate against.
//
// The incremental path is exact only for in-order arrival. Out-of-order
// events, δ changes (SetDelta), and crash recovery mark the device for a
// full rebuild from the store — the rare escape hatch that
// InvalidateDevice/InvalidateAll were demoted to.
package coarse

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"locater/internal/event"
)

// GapHistBuckets is the size of the log₂ gap-duration histogram: bucket i
// counts gaps with duration in [2^(i-1), 2^i) seconds (bucket 0 holds
// sub-second gaps). 40 buckets cover every gap an int64 of nanoseconds can
// represent (~292 years lands in bucket 34).
const GapHistBuckets = 40

// statsHalfLife is the event-time half-life of the decayed gap sufficient
// statistics.
const statsHalfLife = 7 * 24 * time.Hour

// DeviceStats are the decayed sufficient statistics of one device's gap
// structure. All float fields decay exponentially with statsHalfLife of
// event time; RawEvents is the undecayed observation count.
type DeviceStats struct {
	// Events is the decayed event count.
	Events float64 `json:"events"`
	// Gaps / GapSeconds are the decayed count and total duration (seconds)
	// of gaps — inter-event spans exceeding 2δ, exactly the gaps
	// event.Timeline.Gaps reports.
	Gaps       float64 `json:"gaps"`
	GapSeconds float64 `json:"gap_seconds"`
	// Inside / Outside tally gaps the bootstrap heuristics would label:
	// duration ≤ τ_l inside, ≥ τ_h outside.
	Inside  float64 `json:"inside"`
	Outside float64 `json:"outside"`
	// Hist is the log₂-bucketed gap-duration histogram.
	Hist [GapHistBuckets]float64 `json:"hist"`
	// LastNanos is the newest observed event time (decay reference).
	LastNanos int64 `json:"last_nanos"`
	// RawEvents is the undecayed number of events folded in.
	RawEvents int64 `json:"raw_events"`
}

// observe folds one event (in non-decreasing time order) into the
// statistics. This single function IS the sufficient-statistic definition:
// the incremental path and the batch oracle both call it, so their only
// possible divergence is the order of events — and out-of-order arrival
// routes to a rebuild.
func (s *DeviceStats) observe(tNanos, deltaNanos int64, tau Thresholds) {
	if s.RawEvents == 0 {
		s.Events = 1
		s.RawEvents = 1
		s.LastNanos = tNanos
		return
	}
	dt := tNanos - s.LastNanos
	if dt > 0 {
		f := math.Exp(-math.Ln2 * float64(dt) / float64(statsHalfLife))
		s.Events *= f
		s.Gaps *= f
		s.GapSeconds *= f
		s.Inside *= f
		s.Outside *= f
		for i := range s.Hist {
			s.Hist[i] *= f
		}
	}
	s.Events++
	s.RawEvents++
	if gap := dt - 2*deltaNanos; gap > 0 {
		s.Gaps++
		s.GapSeconds += float64(gap) / float64(time.Second)
		s.Hist[gapBucket(gap)]++
		if gap <= int64(tau.TauLow) {
			s.Inside++
		} else if gap >= int64(tau.TauHigh) {
			s.Outside++
		}
	}
	s.LastNanos = tNanos
}

// gapBucket maps a gap duration (nanos) to its log₂ histogram bucket.
func gapBucket(gapNanos int64) int {
	secs := uint64(gapNanos / int64(time.Second))
	b := bits.Len64(secs)
	if b >= GapHistBuckets {
		b = GapHistBuckets - 1
	}
	return b
}

const numStatStripes = 64

type devStats struct {
	DeviceStats
	needRebuild bool
}

type statStripe struct {
	mu  sync.Mutex
	dev map[event.DeviceID]*devStats
}

// statsTable holds the per-device accumulators, lock-striped like the model
// cache so ingest for unrelated devices never contends.
type statsTable struct {
	stripes [numStatStripes]statStripe
	devices atomic.Int64
}

func newStatsTable() *statsTable {
	t := &statsTable{}
	for i := range t.stripes {
		t.stripes[i].dev = make(map[event.DeviceID]*devStats)
	}
	return t
}

func (t *statsTable) stripeOf(d event.DeviceID) *statStripe {
	h := uint32(2166136261)
	for i := 0; i < len(d); i++ {
		h ^= uint32(d[i])
		h *= 16777619
	}
	return &t.stripes[h%numStatStripes]
}

func (t *statsTable) markRebuild(d event.DeviceID) {
	st := t.stripeOf(d)
	st.mu.Lock()
	if ds := st.dev[d]; ds != nil {
		ds.needRebuild = true
	}
	st.mu.Unlock()
}

func (t *statsTable) clear() {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		st.dev = make(map[event.DeviceID]*devStats)
		st.mu.Unlock()
	}
	t.devices.Store(0)
}

// MaintenanceStats are the write-path model-maintenance counters, which
// measure the cost of keeping models current: time spent folding ingested
// events into the sufficient statistics, time spent (re)training per-device
// classifiers, and how often the incremental path had to fall back to a full
// rebuild.
type MaintenanceStats struct {
	// ObserveNanos is total time spent in ObserveIngest.
	ObserveNanos int64 `json:"observe_nanos"`
	// TrainNanos / Trains time the per-device classifier training that
	// train-on-miss still performs after an invalidation.
	TrainNanos int64 `json:"train_nanos"`
	Trains     int64 `json:"trains"`
	// Rebuilds counts full from-store statistic rebuilds (the escape
	// hatch); OutOfOrder counts the ingested events that triggered one.
	Rebuilds   int64 `json:"rebuilds"`
	OutOfOrder int64 `json:"out_of_order"`
	// StatsDevices is the number of devices with live accumulators.
	StatsDevices int64 `json:"stats_devices"`
}

// ObserveIngest folds a successfully-ingested event batch into the
// per-device sufficient statistics and invalidates the trained models of
// the touched devices (training still depends on full history, so a cached
// classifier cannot survive a write; the statistics can, and do). Call it
// AFTER the store applied the batch: a device seen here for the first time
// rebuilds lazily from the store, which already contains these events.
func (l *Localizer) ObserveIngest(events []event.Event) {
	if len(events) == 0 {
		return
	}
	start := time.Now()
	var touched map[event.DeviceID]struct{}
	prev := event.DeviceID("")
	for _, e := range events {
		if e.Device != prev {
			prev = e.Device
			if touched == nil {
				touched = make(map[event.DeviceID]struct{}, 8)
			}
			if _, seen := touched[e.Device]; !seen {
				touched[e.Device] = struct{}{}
				l.models.Delete(e.Device)
			}
		}
		st := l.stats.stripeOf(e.Device)
		st.mu.Lock()
		ds := st.dev[e.Device]
		switch {
		case ds == nil:
			// First sight: the store already holds this event (and possibly
			// a recovered history we never observed) — rebuild lazily.
			st.dev[e.Device] = &devStats{needRebuild: true}
			l.stats.devices.Add(1)
		case ds.needRebuild:
			// Already pending a rebuild; nothing to fold.
		case ds.RawEvents > 0 && e.Time.UnixNano() < ds.LastNanos:
			ds.needRebuild = true
			l.outOfOrder.Add(1)
		default:
			ds.observe(e.Time.UnixNano(), int64(l.store.Delta(e.Device)), l.opts.Thresholds)
		}
		st.mu.Unlock()
	}
	l.observeNanos.Add(time.Since(start).Nanoseconds())
}

// DeviceStatsOf returns the device's current sufficient statistics,
// rebuilding them from the store first when the incremental path gave up
// (out-of-order arrival, δ change, recovery). ok is false for devices the
// store has no events for.
func (l *Localizer) DeviceStatsOf(d event.DeviceID) (DeviceStats, bool) {
	st := l.stats.stripeOf(d)
	st.mu.Lock()
	defer st.mu.Unlock()
	ds := st.dev[d]
	if ds == nil || ds.needRebuild {
		fresh, ok := l.BatchDeviceStats(d)
		if !ok {
			if ds != nil {
				delete(st.dev, d)
				l.stats.devices.Add(-1)
			}
			return DeviceStats{}, false
		}
		if ds == nil {
			ds = &devStats{}
			st.dev[d] = ds
			l.stats.devices.Add(1)
		}
		ds.DeviceStats = fresh
		ds.needRebuild = false
		l.rebuilds.Add(1)
	}
	return ds.DeviceStats, ds.RawEvents > 0
}

// BatchDeviceStats recomputes the device's sufficient statistics from
// scratch by replaying its stored events, in order, through the same
// accumulator the incremental path uses. This is the preserved
// batch-recompute oracle: DeviceStatsOf must match it bitwise for in-order
// histories and within 1e-9 always.
func (l *Localizer) BatchDeviceStats(d event.DeviceID) (DeviceStats, bool) {
	var s DeviceStats
	deltaNanos := int64(l.store.Delta(d))
	found := false
	l.store.ScanEvents(d, time.Time{}, time.Unix(0, math.MaxInt64), func(evs []event.Event, _ time.Duration) {
		found = found || len(evs) > 0
		for _, e := range evs {
			s.observe(e.Time.UnixNano(), deltaNanos, l.opts.Thresholds)
		}
	})
	if !found {
		return DeviceStats{}, false
	}
	return s, true
}

// MaintenanceStats snapshots the write-path maintenance counters.
func (l *Localizer) MaintenanceStats() MaintenanceStats {
	return MaintenanceStats{
		ObserveNanos: l.observeNanos.Load(),
		TrainNanos:   l.trainNanos.Load(),
		Trains:       l.trains.Load(),
		Rebuilds:     l.rebuilds.Load(),
		OutOfOrder:   l.outOfOrder.Load(),
		StatsDevices: l.stats.devices.Load(),
	}
}

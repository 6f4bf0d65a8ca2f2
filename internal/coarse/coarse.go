// Package coarse implements LOCATER's coarse-grained localization: the
// missing-value detection and repair stage (paper Section 3).
//
// Given a query (d, t_q) whose time falls inside a gap of device d's
// connectivity log, the localizer decides (1) whether the device was inside
// or outside the building during the gap and (2) if inside, which region
// (AP coverage area) it was in. Both decisions use per-device classifiers
// trained by a bootstrapping + semi-supervised self-training procedure
// (Algorithm 1) over the gaps extracted from N past days of history:
//
//   - Bootstrapping labels "easy" gaps with duration heuristics: gaps
//     shorter than τ_l are inside, gaps longer than τ_h are outside
//     (similarly τ'_l / τ'_h at the region level). Inside gaps whose start
//     and end regions agree are labeled with that region; otherwise with the
//     device's most-visited region among historical events overlapping the
//     gap's time-of-day window.
//   - Self-training (Algorithm 1) then iteratively trains a logistic
//     regression on the labeled set, predicts the unlabeled gaps, and
//     promotes the prediction with the highest confidence — the variance of
//     the prediction array — into the labeled set until none remain.
package coarse

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"locater/internal/cache"
	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// Thresholds configures the bootstrap heuristics.
type Thresholds struct {
	// TauLow / TauHigh bound the inside/outside bootstrap: a gap with
	// duration ≤ TauLow is labeled inside, ≥ TauHigh outside. The paper's
	// best values are 20 and 180 minutes (Fig. 7).
	TauLow  time.Duration
	TauHigh time.Duration
	// RegionTauLow / RegionTauHigh play the same role for the region-level
	// bootstrap among inside-labeled gaps: short gaps (≤ RegionTauLow) get
	// a region label immediately; gaps longer than RegionTauHigh stay
	// unlabeled for the region model even if inside. Paper: 20 and 40 min.
	RegionTauLow  time.Duration
	RegionTauHigh time.Duration
}

// DefaultThresholds returns the paper's experimentally best settings:
// τ_l = 20 min, τ_h = 180 min, τ'_l = 20 min, τ'_h = 40 min.
func DefaultThresholds() Thresholds {
	return Thresholds{
		TauLow:        20 * time.Minute,
		TauHigh:       180 * time.Minute,
		RegionTauLow:  20 * time.Minute,
		RegionTauHigh: 40 * time.Minute,
	}
}

// DefaultHistoryDays is the default N: the days of connectivity history
// the system learns from (8 weeks, the paper's plateau point in Fig. 8).
const DefaultHistoryDays = 56

// Options configures the coarse localizer.
type Options struct {
	Thresholds Thresholds
	// HistoryDays is N, the number of past days of connectivity history
	// used to extract training gaps. Default DefaultHistoryDays.
	HistoryDays int
	// MaxPromotionsPerRound promotes the top-k most confident unlabeled
	// gaps per self-training round instead of exactly one. 1 reproduces
	// Algorithm 1 verbatim; larger values trade fidelity for speed on
	// large histories. Default 1.
	MaxPromotionsPerRound int
	// MaxTrainingGaps caps the number of gaps used for training (most
	// recent kept). 0 means no cap.
	MaxTrainingGaps int
	// ModelCacheCapacity bounds the number of cached per-device models;
	// past it the least recently used model is evicted (and simply
	// retrained on that device's next query). Default 4096.
	ModelCacheCapacity int
}

func (o Options) withDefaults() Options {
	z := Thresholds{}
	if o.Thresholds == z {
		o.Thresholds = DefaultThresholds()
	}
	if o.HistoryDays <= 0 {
		o.HistoryDays = DefaultHistoryDays
	}
	if o.MaxPromotionsPerRound <= 0 {
		o.MaxPromotionsPerRound = 1
	}
	if o.ModelCacheCapacity <= 0 {
		o.ModelCacheCapacity = 4096
	}
	return o
}

// numModelShards is the number of lock-striped partitions of the per-device
// model cache. 64 keeps lock contention negligible even with hundreds of
// concurrent queries while wasting little memory on an idle system.
const numModelShards = 64

// Localizer answers coarse queries against a store and building. It is safe
// for concurrent use: the per-device model cache (a bounded, sharded LRU)
// is partitioned by a hash of the device ID, so queries, training, and
// invalidation for unrelated devices never contend on a common lock. The
// cache's shard lock is held across lazy training, so two concurrent
// queries for the same untrained device train its model exactly once.
type Localizer struct {
	opts     Options
	building *space.Building
	store    *store.Store

	// regions is the building's region list, sorted (a region's ID is its
	// AP's, and Building.Regions lists them in sorted AP order); regionIdx
	// inverts it. Feature encoding and the region models' label space index
	// into it.
	regions   []space.RegionID
	regionIdx map[space.RegionID]int

	// models caches per-device trained classifiers, bounded at
	// Options.ModelCacheCapacity (LRU eviction past that).
	models *cache.Cache[event.DeviceID, *deviceModel]

	// popMu guards the building-wide fallback model for devices with no
	// history of their own (paper footnote 5).
	popMu      sync.Mutex
	population *deviceModel

	// trainNanos / trains time the per-device model training.
	trainNanos atomic.Int64
	trains     atomic.Int64

	// answerHits / answerMisses count answerGap's memo lookups.
	answerHits   atomic.Int64
	answerMisses atomic.Int64
}

// Result is the coarse-level answer for a query.
type Result struct {
	// Outside is true when the device is predicted outside the building.
	Outside bool
	// Region is the predicted region when inside.
	Region space.RegionID
	// FromValidity is true when t_q fell inside a validity interval, so no
	// repair was needed (the region is the connected AP's region).
	FromValidity bool
	// Confidence is the winning class probability (1 for validity hits and
	// bootstrap-labeled answers).
	Confidence float64
	// Gap is the enclosing gap when the query required repair.
	Gap *event.Gap
}

// New creates a coarse localizer over the given building and store.
func New(b *space.Building, st *store.Store, opts Options) *Localizer {
	opts = opts.withDefaults()
	regions := b.Regions()
	regionIdx := make(map[space.RegionID]int, len(regions))
	for i, r := range regions {
		regionIdx[r] = i
	}
	return &Localizer{
		opts:      opts,
		building:  b,
		store:     st,
		regions:   regions,
		regionIdx: regionIdx,
		models: cache.NewSharded[event.DeviceID, *deviceModel](
			opts.ModelCacheCapacity, numModelShards, cache.StringHash[event.DeviceID]),
	}
}

// ObserveIngest drops the cached models of the devices an ingested batch
// touched: a model is trained from its device's full history, so it cannot
// survive a write to it. Call it AFTER the store applied the batch (or
// failed part-way through it), so a query that retrains reads the new
// events.
func (l *Localizer) ObserveIngest(events []event.Event) {
	prev := event.DeviceID("")
	for _, e := range events {
		if e.Device != prev {
			prev = e.Device
			l.models.Delete(e.Device)
		}
	}
}

// InvalidateDevice drops the device's cached model, for writes other than
// ingest: δ changes (SetDelta).
func (l *Localizer) InvalidateDevice(d event.DeviceID) {
	l.models.Delete(d)
}

// InvalidateAll drops every cached model (an O(1) epoch bump) and the
// population model.
func (l *Localizer) InvalidateAll() {
	l.models.Invalidate()
	l.popMu.Lock()
	l.population = nil
	l.popMu.Unlock()
}

// MaintenanceStats are the write-path model-maintenance counters: the time
// spent (re)training per-device classifiers after writes dropped them.
type MaintenanceStats struct {
	// TrainNanos / Trains time the per-device classifier training that
	// train-on-miss performs after an invalidation.
	TrainNanos int64 `json:"train_nanos"`
	Trains     int64 `json:"trains"`
}

// MaintenanceStats snapshots the write-path maintenance counters.
func (l *Localizer) MaintenanceStats() MaintenanceStats {
	return MaintenanceStats{
		TrainNanos: l.trainNanos.Load(),
		Trains:     l.trains.Load(),
	}
}

// ModelCacheStats reports the model cache's size, capacity, and counters.
func (l *Localizer) ModelCacheStats() cache.Stats {
	return l.models.Stats()
}

// Locate answers the coarse query (d, t_q).
//
// If t_q lies inside a validity interval the device is in the region covered
// by the event's AP. If t_q lies in a gap, the gap is classified
// inside/outside and, when inside, assigned a region. A query after the
// device's last event (the real-time case: the gap has not closed yet) is
// classified as an *open gap* using the elapsed duration since the last
// validity. A query before the device's first event is reported outside.
//
// A closed gap's answer depends on the device's model and its history, never
// on t_q, so a device whose model is cached answers each closed gap once and
// keeps the answer in that model (see answerGap).
func (l *Localizer) Locate(d event.DeviceID, tq time.Time) (Result, error) {
	res, g, repaired, err := l.locate(d, tq)
	if err != nil {
		return Result{}, err
	}
	if repaired {
		gap := g // a copy, so only a gap answer moves it to the heap
		res.Gap = &gap
	}
	return res, nil
}

// Region answers (d, t_q) as far as a neighbor's location needs: the region
// when the device is inside, ok false when it is outside or the query fails.
// It shares Locate's path but leaves the enclosing gap on the stack, so a
// validity hit or a closed gap answered from the model's memo allocates
// nothing. LOCATER resolves every candidate neighbor in a gap through it.
func (l *Localizer) Region(d event.DeviceID, tq time.Time) (space.RegionID, bool) {
	res, _, _, err := l.locate(d, tq)
	if err != nil || res.Outside {
		return "", false
	}
	return res.Region, true
}

// locate is Locate with the enclosing gap returned beside the answer instead
// of in it; the bool reports whether the query needed one.
func (l *Localizer) locate(d event.DeviceID, tq time.Time) (Result, event.Gap, bool, error) {
	// Look the model up before reading the gap: a write to d lands in the
	// store before it drops d's model, so a model cached now outlives no
	// write the gap read below could have missed.
	m, _ := l.models.Peek(d)
	v, g, where, err := l.store.At(d, tq)
	if err != nil {
		return Result{}, g, false, fmt.Errorf("coarse: locating %s: %w", d, err)
	}
	switch where {
	case event.InValidity:
		region, ok := l.building.RegionOf(v.Event.AP)
		if !ok {
			return Result{}, g, false, fmt.Errorf("coarse: event references unknown AP %s", v.Event.AP)
		}
		return Result{Region: region, FromValidity: true, Confidence: 1}, g, false, nil
	case event.Unknown:
		og, ok := l.openGap(d, tq)
		if !ok {
			// No events at or before t_q: the device is offline.
			return Result{Outside: true, Confidence: 1}, g, false, nil
		}
		res, err := l.classifyGap(d, og, nil)
		return res, og, true, err
	}
	if m == nil {
		// First touch: classify without training a model the heuristics
		// may not need.
		res, err := l.classifyGap(d, g, nil)
		return res, g, true, err
	}
	res, err := l.answerGap(d, g, m)
	return res, g, true, err
}

// maxGapAnswers caps the closed-gap answers one device's model keeps; a full
// model answers further gaps without remembering them. A warm query loop
// touches tens of gaps per device, so the cap only bounds the worst case
// (about 64 KiB per model).
const maxGapAnswers = 1024

// gapKey identifies a closed gap within one model's lifetime: every write
// that could move a gap drops the model first.
type gapKey struct{ start, end int64 }

// gapAnswer is a classifyGap result without its gap: region indexes
// l.regions, and is -1 for the empty region of an outside answer (every
// region an answer names is one of l.regions).
type gapAnswer struct {
	outside bool
	region  int32
	conf    float64
}

// result expands the answer; like classifyGap's, it leaves Gap nil.
func (a gapAnswer) result(regions []space.RegionID) Result {
	res := Result{Outside: a.outside, Confidence: a.conf}
	if a.region >= 0 {
		res.Region = regions[a.region]
	}
	return res
}

// answerGap answers closed gap g from m's memo, classifying it with m and
// remembering the answer on the first ask. Everything the answer reads — g,
// m, d's history before g.Start and δ(d) — is fixed for as long as m stays
// cached (ingest for d, SetDelta, EstimateDeltas and eviction all drop m), so
// the memo needs no invalidation of its own and its answers are the ones
// classifyGap would give.
func (l *Localizer) answerGap(d event.DeviceID, g event.Gap, m *deviceModel) (Result, error) {
	k := gapKey{g.Start.UnixNano(), g.End.UnixNano()}
	m.answersMu.Lock()
	a, ok := m.answers[k]
	m.answersMu.Unlock()
	if ok {
		l.answerHits.Add(1)
		return a.result(l.regions), nil
	}
	l.answerMisses.Add(1)
	res, err := l.classifyGap(d, g, m)
	if err != nil {
		return res, err
	}
	a = gapAnswer{outside: res.Outside, region: int32(l.regionIndex(res.Region)), conf: res.Confidence}
	m.answersMu.Lock()
	if m.answers == nil {
		m.answers = make(map[gapKey]gapAnswer)
	}
	if len(m.answers) < maxGapAnswers {
		m.answers[k] = a
	}
	m.answersMu.Unlock()
	return res, nil
}

// GapAnswerStats reports the closed-gap answers kept in the cached models:
// Size counts the answers in current models, Capacity bounds it, and Hits
// and Misses count answerGap lookups. Nothing is evicted: an answer goes
// with its model.
func (l *Localizer) GapAnswerStats() cache.Stats {
	st := cache.Stats{
		Capacity: maxGapAnswers * l.models.Capacity(),
		Hits:     l.answerHits.Load(),
		Misses:   l.answerMisses.Load(),
	}
	l.models.Range(func(m *deviceModel) {
		m.answersMu.Lock()
		st.Size += len(m.answers)
		m.answersMu.Unlock()
	})
	return st
}

// openGap synthesizes the unclosed gap between the device's last event and
// a query time beyond it: the gap runs from the end of the last validity to
// t_q, and — since no later event exists — both endpoints carry the last
// event's region. Used for real-time queries ("where is d now?").
func (l *Localizer) openGap(d event.DeviceID, tq time.Time) (event.Gap, bool) {
	last, ok := l.store.LastEventAtOrBefore(d, tq)
	if !ok {
		return event.Gap{}, false
	}
	// Read δ once: a concurrent EstimateDeltas/SetDelta between two reads
	// would otherwise synthesize a gap from two different deltas.
	delta := l.store.Delta(d)
	start := last.Time.Add(delta)
	if !start.Before(tq) {
		return event.Gap{}, false
	}
	next := last
	next.Time = tq.Add(delta)
	return event.Gap{
		Device:    d,
		Start:     start,
		End:       tq,
		PrevEvent: last,
		NextEvent: next,
	}, true
}

// classifyGap runs the bootstrap heuristics and, when they are inconclusive,
// the classifiers of m — or, when m is nil, of the device's model, trained on
// demand — on gap g. Each history scan runs only when its answer is read: the
// features once the heuristics have sent the gap to the model, the bootstrap
// region when it answers or the model falls back. The result's Gap is left
// nil (Locate attaches g), so g stays off the heap.
func (l *Localizer) classifyGap(d event.DeviceID, g event.Gap, m *deviceModel) (Result, error) {
	th := l.opts.Thresholds

	// Bootstrap heuristics answer directly when conclusive.
	switch {
	case g.Duration() <= th.TauLow:
		region := l.bootstrapRegion(d, g)
		return Result{Region: region, Confidence: 1}, nil
	case g.Duration() >= th.TauHigh:
		return Result{Outside: true, Confidence: 1}, nil
	}

	if m == nil {
		var err error
		if m, err = l.model(d); err != nil {
			return Result{}, err
		}
	}

	x := l.featurize(g, l.windowCount(d, g)).Vector()
	inside, conf := m.predictInside(x)
	if !inside {
		return Result{Outside: true, Confidence: conf}, nil
	}
	region, rconf := m.predictRegion(x, l.regions, func() space.RegionID { return l.bootstrapRegion(d, g) })
	c := conf * rconf
	return Result{Region: region, Confidence: c}, nil
}

// bootstrapRegion applies the paper's region heuristic for inside gaps:
// start==end region ⇒ that region; otherwise the most-visited region among
// the device's historical events whose time of day overlaps the gap's
// [start,end] time-of-day window.
func (l *Localizer) bootstrapRegion(d event.DeviceID, g event.Gap) space.RegionID {
	gs, okS := l.building.RegionOf(g.PrevEvent.AP)
	ge, okE := l.building.RegionOf(g.NextEvent.AP)
	if okS && okE && gs == ge {
		return gs
	}
	var r space.RegionID
	found := false
	l.scanHistory(d, g.Start, func(recs []event.Rec, aps []space.APID, _ time.Duration) {
		r, found = l.mostVisitedRegion(recs, aps, g)
	})
	if found {
		return r
	}
	if okS {
		return gs
	}
	if okE {
		return ge
	}
	if len(l.regions) > 0 {
		return l.regions[0]
	}
	return ""
}

// mostVisitedRegion counts the historical records (their APs named by aps)
// whose time of day falls inside the gap's time-of-day window and returns
// the modal region. Ties break lexicographically for determinism
// (l.regions is sorted). The query path hands it the history window in
// place (scanHistory) — counting retains nothing, so it makes no log copy —
// and training the window it already copied.
func (l *Localizer) mostVisitedRegion(recs []event.Rec, aps []space.APID, g event.Gap) (space.RegionID, bool) {
	startSec := secondOfDay(g.Start)
	endSec := secondOfDay(g.End)
	counts := make([]int, len(l.regions))
	found := false
	for _, r := range recs {
		if inDayWindow(nanosSecondOfDay(r.Nanos), startSec, endSec) {
			if region, ok := l.building.RegionOf(aps[r.AP]); ok {
				counts[l.regionIdx[region]]++
				found = true
			}
		}
	}
	if !found {
		return "", false
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return l.regions[best], true
}

func secondOfDay(t time.Time) int {
	h, m, s := t.Clock()
	return h*3600 + m*60 + s
}

// nanosSecondOfDay is secondOfDay of the UTC time at Unix nanoseconds n —
// the form the store's records keep times in — without building the
// time.Time: Unix days start at UTC midnight, so the second of day is the
// floored Unix second modulo a day.
func nanosSecondOfDay(n int64) int {
	sec := n / 1e9
	if n%1e9 < 0 {
		sec--
	}
	s := sec % 86400
	if s < 0 {
		s += 86400
	}
	return int(s)
}

// inDayWindow reports whether second-of-day s lies in [start, end],
// handling windows that wrap past midnight.
func inDayWindow(s, start, end int) bool {
	if start <= end {
		return s >= start && s <= end
	}
	return s >= start || s <= end
}

// history copies the records of the device's history window out of the
// store — training reads them after the store's lock is released, so the
// copy is the only work done under it — and returns the window's gaps
// (event.Gaps) with the records and the AP dictionary they index.
func (l *Localizer) history(d event.DeviceID, ref time.Time) (gaps []event.Gap, recs []event.Rec, aps []space.APID, err error) {
	var delta time.Duration
	if l.scanHistory(d, ref, func(r []event.Rec, a []space.APID, dl time.Duration) {
		recs, aps, delta = slices.Clone(r), a, dl
	}) && delta <= 0 {
		return nil, nil, nil, fmt.Errorf("coarse: non-positive validity interval %v for device %s", delta, d)
	}
	return event.Gaps(d, recs, aps, delta), recs, aps, nil
}

// scanHistory visits the device's N-day window ending at ref zero-copy, as
// the store's records, AP dictionary and δ (see store.ScanEvents), under
// the store's shared lock, and reports whether the device exists. fn must
// not retain recs.
func (l *Localizer) scanHistory(d event.DeviceID, ref time.Time, fn func(recs []event.Rec, aps []space.APID, delta time.Duration)) bool {
	return l.store.ScanEvents(d, ref.AddDate(0, 0, -l.opts.HistoryDays), ref, fn)
}

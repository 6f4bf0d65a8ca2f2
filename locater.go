// Package locater is a reproduction of "LOCATER: Cleaning WiFi Connectivity
// Datasets for Semantic Localization" (Lin et al., VLDB 2020): an online
// cleaning system that answers room-level localization queries over raw WiFi
// association logs.
//
// LOCATER poses semantic indoor localization as two data-cleaning problems.
// Coarse-grained localization treats the periods between a device's sporadic
// connectivity events ("gaps") as missing values: a bootstrapped,
// semi-supervised classifier decides whether the device was inside or
// outside the building during the gap and, when inside, which access-point
// coverage region it was in. Fine-grained localization disambiguates the
// specific room among the region's candidates using room affinities derived
// from space metadata and group affinities derived from historical device
// co-location, processed by an iterative algorithm with probabilistic early
// termination. A caching engine (the global affinity graph) accumulates
// affinity knowledge across queries to reach near-real-time responses.
//
// Basic usage:
//
//	sys, err := locater.New(locater.Config{Building: b})
//	...
//	sys.Ingest(events)
//	res, err := sys.Locate("7f:bh:..", queryTime)
//	if res.Outside { ... } else { fmt.Println(res.Region, res.Room) }
package locater

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locater/internal/affgraph"
	"locater/internal/cache"
	"locater/internal/cleanse"
	"locater/internal/coarse"
	"locater/internal/event"
	"locater/internal/fine"
	"locater/internal/space"
	"locater/internal/store"
	"locater/internal/wal"
)

// Re-exported identifier types, so callers need not import internal
// packages.
type (
	// DeviceID is a device MAC address.
	DeviceID = event.DeviceID
	// RoomID identifies a room.
	RoomID = space.RoomID
	// RegionID identifies an AP coverage region.
	RegionID = space.RegionID
	// APID identifies an access point.
	APID = space.APID
	// Event is one WiFi association record ⟨mac, time, wap⟩.
	Event = event.Event
	// Building is the space metadata model.
	Building = space.Building
	// Weights are the room-affinity weights (w^pf, w^pb, w^pr).
	Weights = fine.Weights
	// TimePreference scopes preferred rooms to a daily time window
	// (Section 4.1's time-dependent preferred-room extension).
	TimePreference = space.TimePreference
)

// Variant selects the fine-grained inference model.
type Variant = fine.Variant

const (
	// IndependentVariant is I-LOCATER: neighbors treated independently
	// (Eq. 3 posterior with the Theorem 1–3 stop bounds).
	IndependentVariant = fine.Independent
	// DependentVariant is D-LOCATER: neighbors grouped in affinity
	// clusters (Eq. 6 posterior; slightly more precise, slower).
	DependentVariant = fine.Dependent
)

// DefaultWeights returns the paper's best weight combination C2 =
// {0.6, 0.3, 0.1} (Table 2).
func DefaultWeights() Weights { return fine.DefaultWeights() }

// ErrDeadlineExceeded reports that a query's context deadline expired before
// the answer was computed. It is distinct from every other query error so
// callers (the HTTP layer, the batch driver, load harnesses) can classify
// timed-out work separately from genuine failures.
var ErrDeadlineExceeded = errors.New("locater: query deadline exceeded")

// ErrInvalidEvent is wrapped by every Ingest rejection that is the caller's
// fault: an event without a device, an AP or a timestamp. Any other Ingest
// error is a durability failure (the write-ahead log could not append or
// commit the batch). See store.ErrInvalidEvent.
var ErrInvalidEvent = store.ErrInvalidEvent

// Config configures a LOCATER system. The zero value of every optional
// field selects the paper's defaults. The fields choose the paper's
// parameters (the I/D variant, room-affinity weights, the N-day history, the
// τ thresholds), whether the caching engine runs, how the cold tier is read
// and whether feeds are cleansed; none of them selects between
// implementations. Everything else is a constant: δ defaults to 10 minutes
// per device (SetDelta and EstimateDeltas change it), the region-level τ
// thresholds are 20 and 40 minutes, the cache tiers hold 65536 affinities,
// 16384 results and 4096 coarse models, and the graph kernel's σ is one
// hour.
type Config struct {
	// Building is the space metadata (required).
	Building *space.Building

	// Variant selects I-LOCATER or D-LOCATER. Default independent.
	Variant Variant
	// Weights are the room-affinity weights; DefaultWeights when zero.
	Weights Weights
	// DisableStopConditions turns off Algorithm 2's loose early
	// termination (the Fig. 11 ablation). Default off (conditions used).
	DisableStopConditions bool
	// HistoryDays is the coarse stage's training window N in days.
	// Default 56 (8 weeks).
	HistoryDays int
	// TauLow/TauHigh are the inside/outside bootstrap thresholds
	// (defaults 20 and 180 minutes; Fig. 7).
	TauLow, TauHigh time.Duration
	// PromotionsPerRound is how many unlabeled gaps each self-training
	// round promotes; 1 reproduces Algorithm 1 exactly. Default 1.
	PromotionsPerRound int
	// MaxTrainingGaps caps the gaps used to train per-device models
	// (most recent kept; 0 = unlimited).
	MaxTrainingGaps int

	// HistoryWindow bounds the history scanned for device affinities.
	// Default 8 weeks.
	HistoryWindow time.Duration

	// EnableCache turns on the caching engine: the global affinity graph,
	// the bounded pairwise-affinity fallback cache, and the query result
	// cache. All three are invalidation-correct — every write (Ingest,
	// SetDelta, EstimateDeltas, AddRoomLabel, …) is visible to the very
	// next query.
	EnableCache bool

	// ColdTierMmap memory-maps the cold tier's segment files so segment
	// decodes read borrowed mapped bytes instead of copying through read
	// syscalls, and residency is owned by the OS page cache rather than the
	// Go heap. Effective only on systems built with Open (whose sealed
	// segments live in files under "<dir>/segments"), on platforms with
	// mmap support (elsewhere the portable read-at path is used
	// transparently).
	ColdTierMmap bool

	// EnableCleansing turns on the ingest-time cleansing stage: oscillating
	// AP re-associations are deduplicated, physically impossible transitions
	// dropped, and degenerate devices flagged BEFORE events reach the store
	// (and, on durable systems, before they reach the write-ahead log, so
	// replay never re-cleanses). Rejected events land in a bounded
	// quarantine ring inspectable via Quarantine / GET /v1/quarantine. The
	// rules run with internal/cleanse's defaults. Default off: with
	// cleansing disabled the pipeline's answers are byte-identical to raw
	// ingestion.
	EnableCleansing bool
}

func (c Config) coarseOptions() coarse.Options {
	th := coarse.DefaultThresholds()
	if c.TauLow > 0 {
		th.TauLow = c.TauLow
	}
	if c.TauHigh > 0 {
		th.TauHigh = c.TauHigh
	}
	return coarse.Options{
		Thresholds:            th,
		HistoryDays:           c.HistoryDays,
		MaxPromotionsPerRound: c.PromotionsPerRound,
		MaxTrainingGaps:       c.MaxTrainingGaps,
	}
}

func (c Config) fineOptions() fine.Options {
	return fine.Options{
		Weights:           c.Weights,
		Variant:           c.Variant,
		UseStopConditions: !c.DisableStopConditions,
		HistoryWindow:     c.HistoryWindow,
	}
}

// resultCacheSize bounds the query result cache in entries (one per device
// per minute of query time).
const resultCacheSize = 16384

// resultCacheBucket quantizes query times for the result cache: two queries
// for the same device whose times fall in the same bucket share one cached
// answer (unless a write intervened). One minute is below the paper's
// 10-minute default δ, so bucketing cannot blur a validity-interval
// boundary by more than a minute.
const resultCacheBucket = time.Minute

// resultKey identifies one memoized Locate answer: a device plus the query
// time quantized to resultCacheBucket.
type resultKey struct {
	device DeviceID
	bucket int64
}

// hashResultKey mixes the device ID and the time bucket (FNV-1a).
func hashResultKey(k resultKey) uint64 {
	const prime64 = 1099511628211
	h := cache.StringHash(k.device)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(k.bucket >> (8 * i)))
		h *= prime64
	}
	return h
}

// Result is a localization answer at all granularities.
type Result struct {
	// Outside reports the device outside the building at the query time.
	Outside bool
	// Region is the coarse answer when inside.
	Region RegionID
	// Room is the fine answer when inside.
	Room RoomID
	// RoomProbability is the posterior of the chosen room.
	RoomProbability float64
	// CoarseConfidence is the confidence of the coarse stage.
	CoarseConfidence float64
	// Repaired is true when the query time fell in a gap (a missing value
	// was repaired); false when an actual connectivity event covered it.
	Repaired bool
	// ProcessedNeighbors / TotalNeighbors report Algorithm 2's work.
	ProcessedNeighbors int
	TotalNeighbors     int
}

// System is the LOCATER engine: storage + cleaning + caching. It is safe
// for concurrent use and scales across cores: there is no system-wide lock.
// Each component synchronizes independently —
//
//   - the store takes a shared lock for reads, an exclusive one for ingest;
//   - the coarse stage's per-device model cache is sharded by a hash of the
//     device ID, so training, queries, and ingest-triggered invalidation
//     for unrelated devices never contend on a common lock;
//   - the label store and the caching engine (global affinity graph +
//     affinity cache) use read/write locks of their own;
//   - the query counter is atomic.
//
// Concurrent Locate calls for different devices therefore run in parallel,
// and Ingest interleaves with queries without stopping the world. The
// remaining cross-query contention points are the store's shared lock,
// same-shard model training, and — with EnableCache — the affinity graph's
// write lock, which every query that produced local edges takes briefly to
// merge them. See ARCHITECTURE.md for the full concurrency model.
type System struct {
	building *space.Building
	store    *store.Store
	coarse   *coarse.Localizer
	fine     *fine.Localizer
	graph    *affgraph.Graph
	cached   *affgraph.CachedAffinity
	labels   *fine.LabelStore

	// cleanser is the ingest-time cleansing stage; nil when
	// Config.EnableCleansing is off.
	cleanser *cleanse.Cleanser

	// results memoizes whole Locate answers by (device, bucketed time);
	// nil when caching is off. Every write path bumps its epoch (see
	// invalidateQueryCaches), so a cached answer can never outlive the
	// history it was computed from.
	results *cache.Cache[resultKey, Result]

	// Durable-mode state (nil/zero for systems built with New). persistMu
	// coordinates appenders with Checkpoint: every mutation that reaches
	// the write-ahead log holds it shared, a checkpoint holds it exclusive
	// while capturing state, so the captured state and captured log
	// position always agree. Queries never touch it.
	wal       *wal.WAL
	persistMu sync.RWMutex
	snapStop  chan struct{}
	snapDone  chan struct{}

	queries atomic.Int64
	// metrics records cold/cached latency histograms and the
	// neighbors-processed distribution (see QueryStats).
	metrics queryMetrics
}

// New validates the configuration and assembles a system.
func New(cfg Config) (*System, error) {
	if cfg.Building == nil {
		return nil, fmt.Errorf("locater: Config.Building is required")
	}
	if (cfg.Weights != fine.Weights{}) {
		if err := cfg.Weights.Validate(); err != nil {
			return nil, err
		}
	}
	st := store.New(0)
	s := &System{
		building: cfg.Building,
		store:    st,
	}
	s.coarse = coarse.New(cfg.Building, st, cfg.coarseOptions())
	if cfg.EnableCleansing {
		s.cleanser = cleanse.New(cfg.Building, cleanse.Config{})
		// After recovery the cleanser's per-device state is empty (the WAL
		// holds only cleansed events, so replay skips the stage); seed each
		// device's rule state lazily from its newest stored event.
		s.cleanser.SetSeed(func(d event.DeviceID) (event.Event, bool) {
			return st.LastEventAtOrBefore(d, time.Unix(0, math.MaxInt64))
		})
	}

	fineOpts := cfg.fineOptions()
	var provider fine.PairAffinityProvider
	var orderer fine.NeighborOrderer
	if cfg.EnableCache {
		s.graph = affgraph.New(affgraph.Options{})
		window := fineOpts.HistoryWindow
		if window <= 0 {
			window = 8 * 7 * 24 * time.Hour
		}
		base := fine.NewStoreAffinity(st, window)
		s.cached = affgraph.NewCachedAffinity(s.graph, base, time.Hour, 0)
		provider = s.cached
		orderer = s.graph
		s.results = cache.New[resultKey, Result](resultCacheSize, hashResultKey)
	}
	s.fine = fine.New(cfg.Building, st, provider, orderer, fineOpts)
	// The label store is attached up front (an empty store is a no-op for
	// the prior) so AddRoomLabel never has to swap the fine stage's
	// pointer while concurrent queries read it.
	s.labels = fine.NewLabelStore(0)
	s.fine.SetLabelStore(s.labels)
	// Fine localization resolves neighbor regions through the coarse
	// stage when the neighbor is itself inside a gap.
	s.fine.SetCoarseResolver(s.coarse.Region)
	return s, nil
}

// invalidateQueryCaches epoch-bumps the caches whose entries derive from
// mutable history: cached pairwise affinities and memoized query results.
// Called after every write path, so a post-write query always recomputes
// from post-write state — the cached layers can never answer from stale
// history (the pre-fix bug: ingest only invalidated coarse models, and
// cached affinities kept answering from pre-ingest co-locations forever).
// The affinity graph itself is not cleared: its edges are query-derived
// knowledge the paper's caching engine accumulates on purpose.
func (s *System) invalidateQueryCaches() {
	if s.cached != nil {
		s.cached.Invalidate()
	}
	s.invalidateResultCache()
}

// invalidateResultCache epoch-bumps only the memoized query results: for
// writes that change answers without touching affinity inputs (labels,
// preferred rooms), dropping the expensive pairwise-affinity cache too
// would force needless store scans.
func (s *System) invalidateResultCache() {
	if s.results != nil {
		s.results.Invalidate()
	}
}

// Ingest adds a batch of connectivity events. A batch holding an event
// without a device, an AP or a timestamp is refused whole with
// ErrInvalidEvent before any stage sees it. The cleanser remembers every
// event it keeps, so a refused batch must not reach it, or its corrected
// retry would be dropped as a duplicate; nor may it invalidate caches for a
// write that never happened. With EnableCleansing the batch then passes the
// cleansing stage, so the store — and, on durable systems, the write-ahead
// log — only ever hold cleansed events.
//
// After the store applies the batch, the touched devices' coarse models are
// dropped, the affinity tier records the write in its per-device log
// (scoped validation then keeps every cached affinity a recent-events write
// provably cannot change), and only the memoized query results — whose
// entries future events can always change — are epoch-bumped. Safe to call
// while queries are in flight. On a system built with Open the batch is
// written ahead to the log and Ingest returns only once it is durable.
func (s *System) Ingest(events []Event) error {
	if err := store.ValidateEvents(events); err != nil {
		return err
	}
	if s.cleanser != nil {
		events = s.cleanser.Clean(events)
		if len(events) == 0 {
			return nil
		}
	}
	s.persistMu.RLock()
	_, err := s.store.Ingest(events)
	s.persistMu.RUnlock()
	s.observeWrite(events, err)
	return err
}

// IngestOne adds one event (streaming ingestion). Validation, cleansing and
// model maintenance match Ingest.
func (s *System) IngestOne(e Event) error {
	events := []Event{e}
	if err := store.ValidateEvents(events); err != nil {
		return err
	}
	if s.cleanser != nil {
		events = s.cleanser.Clean(events)
		if len(events) == 0 {
			return nil
		}
	}
	s.persistMu.RLock()
	err := s.store.IngestOne(events[0])
	s.persistMu.RUnlock()
	s.observeWrite(events, err)
	return err
}

// observeWrite runs post-store model maintenance for an ingested batch: the
// touched devices' coarse models are dropped either way. On a store error
// the batch may be partially applied (a durability Commit-stage failure has
// already mutated the in-memory store), so every query cache is dropped
// whole — stale caches must not outlive the partial write.
func (s *System) observeWrite(events []Event, err error) {
	s.coarse.ObserveIngest(events)
	if err != nil {
		s.invalidateQueryCaches()
		return
	}
	if s.cached != nil {
		s.cached.ObserveIngest(events)
	}
	// Memoized whole-query answers can never survive a write: a future
	// event can close an open gap and change any neighbor's evidence.
	s.invalidateResultCache()
}

// SetDelta registers a device-specific validity interval δ(d). The device's
// coarse model is dropped (its gap structure just changed), and the affinity
// tier drops the device's cached pairs.
func (s *System) SetDelta(d DeviceID, delta time.Duration) error {
	s.persistMu.RLock()
	err := s.store.SetDelta(d, delta)
	s.persistMu.RUnlock()
	// Invalidate even on error, as in Ingest: a durability (Commit-stage)
	// failure has already applied the new δ to the in-memory store, and
	// caches built under the old δ must not outlive it.
	s.coarse.InvalidateDevice(d)
	if s.cached != nil {
		s.cached.InvalidateDevice(d)
	}
	s.invalidateResultCache()
	return err
}

// EstimateDeltas derives δ(d) for every ingested device from its own log
// (Appendix 9.1), clamped to [min, max], at the given quantile of same-AP
// inter-event spacings. The returned error is always nil on systems built
// with New; on a durable system it reports a failure to log the estimated
// deltas.
func (s *System) EstimateDeltas(quantile float64, min, max time.Duration) error {
	s.persistMu.RLock()
	err := s.store.EstimateDeltas(quantile, min, max)
	s.persistMu.RUnlock()
	// Invalidate even on error, as in Ingest and SetDelta: a logging or
	// durability failure can leave some (or all) of the estimated δs
	// applied to the in-memory store, and caches built under the old δs
	// must not outlive them.
	s.coarse.InvalidateAll()
	s.invalidateQueryCaches()
	return err
}

// AddRoomLabel records a crowd-sourced room-level observation — device d was
// known to be in room r at time t (e.g. from a calendar, badge reader, or
// user report). Labels sharpen the device's room-affinity prior, the
// extension sketched in the paper's footnote 7.
func (s *System) AddRoomLabel(d DeviceID, r RoomID, t time.Time) error {
	// Validate up front — an invalid label must neither reach the
	// write-ahead log (replay re-applies without validation) nor the
	// in-memory store.
	if d == "" {
		return fmt.Errorf("locater: label with empty device")
	}
	if _, ok := s.building.Room(r); !ok {
		return fmt.Errorf("locater: label references unknown room %s", r)
	}
	if !store.TimeFits(t) {
		return fmt.Errorf("locater: label time %v outside int64 nanoseconds", t)
	}
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	// Same write-ahead order as ingest: log first (a failed append applies
	// nothing, so a retry cannot double-count), then apply, then wait for
	// durability.
	if s.wal != nil {
		if err := s.wal.AppendLabel(d, r, t); err != nil {
			return fmt.Errorf("locater: logging label: %w", err)
		}
	}
	if err := s.labels.Add(d, r, t); err != nil {
		return err
	}
	// Labels sharpen the fine stage's room prior, so memoized results are
	// stale the moment the label lands; affinities are unaffected.
	s.invalidateResultCache()
	if s.wal != nil {
		if err := s.wal.Commit(); err != nil {
			return fmt.Errorf("locater: committing label: %w", err)
		}
	}
	return nil
}

// SetTimePreferredRooms registers time-of-day-scoped preferred rooms for a
// device (e.g. the break room over lunch, the office otherwise). See
// space.TimePreference.
func (s *System) SetTimePreferredRooms(d DeviceID, prefs []TimePreference) error {
	if err := s.building.SetTimePreferredRooms(string(d), prefs); err != nil {
		return err
	}
	// Preferred rooms shift the fine stage's room prior: memoized results
	// must not survive the change; affinities are unaffected.
	s.invalidateResultCache()
	return nil
}

// Locate answers the query Q = (device, t): the paper's end-to-end flow.
// The coarse stage classifies the query point (validity hit, or gap repair);
// if the device is inside, the fine stage disambiguates the room. Locate is
// safe to call from many goroutines; queries for unrelated devices run in
// parallel (see LocateBatch for a pooled fan-out).
//
// With EnableCache, whole answers are memoized by (device, time bucket):
// a repeat query skips both stages entirely. The memo is epoch-based —
// every write path invalidates it — so a query issued right after an Ingest
// is recomputed from the post-ingest history, never served stale.
func (s *System) Locate(d DeviceID, t time.Time) (Result, error) {
	return s.LocateContext(context.Background(), d, t)
}

// LocateContext is Locate under a context: when the context's deadline
// expires (or it is canceled) before the answer is computed, the query fails
// with ErrDeadlineExceeded (respectively the context's error) instead of
// running to completion. The deadline is checked at the stage boundaries of
// the pipeline — on entry, and between the coarse and fine stages — so an
// expired query stops before its most expensive work, not after.
func (s *System) LocateContext(ctx context.Context, d DeviceID, t time.Time) (Result, error) {
	// Answers read t's wall clock (an open gap's features, preferred-room
	// windows) while the result cache keys t by instant; stored times are
	// UTC, so the query time is too.
	t = t.UTC()
	s.queries.Add(1)
	start := time.Now()
	if err := s.ctxErr(ctx); err != nil {
		return Result{}, err
	}
	if s.results == nil {
		res, err := s.locate(ctx, d, t)
		if err == nil {
			s.metrics.cold.observe(time.Since(start))
			s.metrics.neighbors.observe(res.ProcessedNeighbors)
		}
		return res, err
	}
	key := resultKey{device: d, bucket: t.UnixNano() / int64(resultCacheBucket)}
	if res, ok := s.results.Get(key); ok {
		s.metrics.cached.observe(time.Since(start))
		return res, nil
	}
	// Capture the epoch before computing: if a write lands while the
	// stages run, PutAt skips the insert, so the stale answer is returned
	// to this caller (it raced the write) but never cached for later ones.
	epoch := s.results.Epoch()
	res, err := s.locate(ctx, d, t)
	if err == nil {
		s.results.PutAt(key, res, epoch)
		s.metrics.cold.observe(time.Since(start))
		s.metrics.neighbors.observe(res.ProcessedNeighbors)
	}
	return res, err
}

// ctxErr maps a context's state to the query-level error: nil while live,
// ErrDeadlineExceeded (counted in QueryStats) on an expired deadline, and
// the context's own error on cancelation.
func (s *System) ctxErr(ctx context.Context) error {
	switch err := ctx.Err(); err {
	case nil:
		return nil
	case context.DeadlineExceeded:
		s.metrics.deadlineExceeded.Add(1)
		return ErrDeadlineExceeded
	default:
		return err
	}
}

// locate runs the two cleaning stages uncached.
func (s *System) locate(ctx context.Context, d DeviceID, t time.Time) (Result, error) {
	cres, err := s.coarse.Locate(d, t)
	if err != nil {
		return Result{}, err
	}
	if cres.Outside {
		return Result{
			Outside:          true,
			CoarseConfidence: cres.Confidence,
			Repaired:         cres.Gap != nil,
		}, nil
	}
	// The fine stage (neighbor discovery + Algorithm 2) dominates query
	// cost; don't start it for a query whose deadline already expired.
	if err := s.ctxErr(ctx); err != nil {
		return Result{}, err
	}
	fres, err := s.fine.Locate(d, cres.Region, t)
	if err != nil {
		return Result{}, err
	}
	if s.graph != nil && len(fres.LocalGraph) > 0 {
		edges := make([]affgraph.Edge, len(fres.LocalGraph))
		for i, e := range fres.LocalGraph {
			edges[i] = affgraph.Edge{From: e.From, To: e.To, Weight: e.Weight}
		}
		s.graph.Merge(edges, t)
	}
	return Result{
		Region:             cres.Region,
		Room:               fres.Room,
		RoomProbability:    fres.Probability,
		CoarseConfidence:   cres.Confidence,
		Repaired:           !cres.FromValidity,
		ProcessedNeighbors: fres.ProcessedNeighbors,
		TotalNeighbors:     fres.TotalNeighbors,
	}, nil
}

// LocateCoarse runs only the coarse stage (building/region granularity).
func (s *System) LocateCoarse(d DeviceID, t time.Time) (outside bool, region RegionID, err error) {
	cres, err := s.coarse.Locate(d, t.UTC())
	if err != nil {
		return false, "", err
	}
	return cres.Outside, cres.Region, nil
}

// Building returns the space metadata the system operates on.
func (s *System) Building() *Building { return s.building }

// NumEvents returns the number of ingested connectivity events.
func (s *System) NumEvents() int { return s.store.NumEvents() }

// NumDevices returns the number of distinct ingested devices.
func (s *System) NumDevices() int { return s.store.NumDevices() }

// NumQueries returns the number of Locate calls served.
func (s *System) NumQueries() int { return int(s.queries.Load()) }

// CacheTierStats reports one cache tier's bound and counters.
type CacheTierStats struct {
	// Size is the current number of resident entries; never exceeds
	// Capacity.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits and Misses count lookups.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts LRU removals at capacity; Invalidations counts
	// write-triggered invalidation events (epoch bumps and per-key drops).
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

func tierStats(st cache.Stats) CacheTierStats {
	return CacheTierStats{
		Size:          st.Size,
		Capacity:      st.Capacity,
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
	}
}

// OccupancyIndexStats reports the store's temporal occupancy index: its
// bucket width, resident size, and lookup traffic. See store.OccupancyStats
// for field documentation.
type OccupancyIndexStats = store.OccupancyStats

// SegmentTierStats reports the store's log-structured event layout: sealed
// segment counts, encoded size, and seal/page-in/decode traffic. See
// store.SegmentStats for field documentation.
type SegmentTierStats = store.SegmentStats

// CleanseStats reports the ingest-time cleansing stage's per-rule counters.
// See cleanse.Stats for field documentation.
type CleanseStats = cleanse.Stats

// QuarantineEntry is one cleansing-rejected event with the rule that
// rejected it. See cleanse.Entry.
type QuarantineEntry = cleanse.Entry

// CoarseMaintenanceStats / AffinityMaintenanceStats are the two model
// tiers' write-path maintenance counters (see coarse.MaintenanceStats and
// affgraph.MaintenanceStats).
type (
	CoarseMaintenanceStats   = coarse.MaintenanceStats
	AffinityMaintenanceStats = affgraph.MaintenanceStats
)

// MaintenanceStats reports the write path's model-maintenance picture: the
// coarse retraining writes cause, and how well the affinity tier's scoped
// validation keeps cached affinities across writes.
type MaintenanceStats struct {
	Coarse   CoarseMaintenanceStats   `json:"coarse"`
	Affinity AffinityMaintenanceStats `json:"affinity"`
}

// MaintenanceStats snapshots the write-path maintenance counters.
func (s *System) MaintenanceStats() MaintenanceStats {
	ms := MaintenanceStats{Coarse: s.coarse.MaintenanceStats()}
	if s.cached != nil {
		ms.Affinity = s.cached.MaintenanceStats()
	}
	return ms
}

// CleanseStats snapshots the cleansing stage's counters; zero when
// Config.EnableCleansing is off.
func (s *System) CleanseStats() CleanseStats {
	if s.cleanser == nil {
		return CleanseStats{}
	}
	return s.cleanser.Stats()
}

// CleansingEnabled reports whether Config.EnableCleansing is on.
func (s *System) CleansingEnabled() bool { return s.cleanser != nil }

// Quarantine returns the newest quarantined (cleansing-rejected) events,
// newest first, at most limit (limit ≤ 0 returns the whole ring). Empty
// when Config.EnableCleansing is off.
func (s *System) Quarantine(limit int) []QuarantineEntry {
	if s.cleanser == nil {
		return nil
	}
	return s.cleanser.Quarantine(limit)
}

// CacheStats reports every cache tier's state: the global affinity graph's
// edge count, the pairwise-affinity fallback cache, the coarse per-device
// model cache and the closed-gap answers its models keep, and the query
// result cache, plus the store's occupancy index and segmented event layout.
// The coarse tiers, Occupancy, and Segments are live even when EnableCache
// is off (the coarse stage always caches trained models, and the index and
// segment tiers are store features);
// Affinity and Results are zero then, and Enabled reports false.
//
// The JSON tags here and on the nested stats types are the wire schema of
// GET /v1/stats ("caches"): internal/srv marshals this struct and
// internal/client unmarshals into it.
type CacheStats struct {
	// Enabled reports whether the caching engine (Config.EnableCache) is on.
	Enabled bool `json:"enabled"`
	// GraphEdges is the number of distinct edges in the global affinity
	// graph (bounded per edge, not evicted: graph knowledge accumulates).
	GraphEdges int `json:"graph_edges"`
	// Affinity is the pairwise-affinity fallback cache (graph-served
	// lookups count toward its Hits).
	Affinity CacheTierStats `json:"affinity"`
	// CoarseModels is the coarse stage's per-device trained-model cache. Its
	// Hits and Misses count only lookups that needed a model.
	CoarseModels CacheTierStats `json:"coarse_models"`
	// CoarseGapAnswers is the closed-gap answers the cached coarse models
	// keep: Size answers are resident, and Hits/Misses count the closed-gap
	// queries a cached model answered from memory or classified. The answers
	// leave with their model, so Evictions and Invalidations stay zero.
	CoarseGapAnswers CacheTierStats `json:"coarse_gap_answers"`
	// Results is the whole-query result cache.
	Results CacheTierStats `json:"results"`
	// Occupancy is the store's temporal occupancy index (neighbor
	// discovery).
	Occupancy OccupancyIndexStats `json:"occupancy"`
	// Segments is the store's log-structured event layout: sealed-segment
	// shape plus the decoded-segment cache's traffic.
	Segments SegmentTierStats `json:"segments"`
	// Cleanse is the ingest-time cleansing stage's per-rule counters; zero
	// when Config.EnableCleansing is off.
	Cleanse CleanseStats `json:"cleanse"`
	// Maintenance is the write path's model-maintenance counters (coarse
	// training + affinity scoped validation).
	Maintenance MaintenanceStats `json:"maintenance"`
}

// CacheStats reports the caching layer's per-tier sizes, bounds, and
// hit/miss/eviction/invalidation counters.
func (s *System) CacheStats() CacheStats {
	cs := CacheStats{
		CoarseModels:     tierStats(s.coarse.ModelCacheStats()),
		CoarseGapAnswers: tierStats(s.coarse.GapAnswerStats()),
		Occupancy:        s.store.OccupancyStats(),
		Segments:         s.store.SegmentStats(),
		Cleanse:          s.CleanseStats(),
		Maintenance:      s.MaintenanceStats(),
	}
	if s.graph != nil {
		cs.Enabled = true
		cs.GraphEdges = s.graph.NumEdges()
		cs.Affinity = tierStats(s.cached.Stats())
	}
	if s.results != nil {
		cs.Results = tierStats(s.results.Stats())
	}
	return cs
}

// Query is one localization request Q = (device, t) for LocateBatch.
type Query struct {
	Device DeviceID
	Time   time.Time
}

// BatchResult pairs a batch query with its answer. Err is per-query: one
// failing query does not abort the rest of the batch.
type BatchResult struct {
	Query  Query
	Result Result
	Err    error
}

// LocateBatch answers many queries concurrently on a bounded worker pool
// and returns the results in input order. workers bounds the number of
// goroutines; values < 1 default to GOMAXPROCS, and the pool never exceeds
// len(queries). Workers pull queries from a shared index, so a handful of
// slow queries (cold models that need training) do not stall the rest of
// the batch behind a fixed partition.
//
// Throughput scales with cores because Locate takes no system-wide lock:
// queries wait on each other only at the contention points listed in the
// System documentation (same-shard training, the store's shared lock, and
// the cache's graph-merge write lock).
func (s *System) LocateBatch(queries []Query, workers int) []BatchResult {
	return s.LocateBatchContext(context.Background(), queries, workers)
}

// LocateBatchContext is LocateBatch under a context: once the context's
// deadline expires, queries not yet started fail fast with
// ErrDeadlineExceeded instead of executing — the batch drains immediately
// rather than grinding through dead work. Queries already in flight finish
// at their next stage boundary (see LocateContext).
func (s *System) LocateBatchContext(ctx context.Context, queries []Query, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				q := queries[i]
				if err := s.ctxErr(ctx); err != nil {
					out[i] = BatchResult{Query: q, Err: err}
					continue
				}
				res, err := s.LocateContext(ctx, q.Device, q.Time)
				out[i] = BatchResult{Query: q, Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

package locater

import (
	"math"
	"sync/atomic"
	"time"

	"locater/internal/affgraph"
	"locater/internal/cache"
	"locater/internal/cleanse"
	"locater/internal/coarse"
	"locater/internal/store"
)

// latencyHist is a lock-free power-of-two-bucketed latency histogram:
// bucket i counts observations with latency < 2^i microseconds (the last
// bucket is open-ended). Observations are single atomic increments, so the
// query hot path pays a handful of nanoseconds for full latency visibility.
type latencyHist struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [32]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		old := h.maxNs.Load()
		if ns <= old || h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	us := ns / 1000
	b := 0
	for us >= 1<<b && b < len(h.buckets)-1 {
		b++
	}
	h.buckets[b].Add(1)
}

// quantile returns the upper bound (µs) of the bucket holding the q-th
// observation — an upper estimate within a factor of 2.
func (h *latencyHist) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum >= target {
			return float64(int64(1) << b)
		}
	}
	return float64(int64(1) << (len(h.buckets) - 1))
}

func (h *latencyHist) snapshot() LatencyStats {
	n := h.count.Load()
	st := LatencyStats{Count: n}
	if n == 0 {
		return st
	}
	st.MeanMicros = float64(h.sumNs.Load()) / float64(n) / 1000
	st.P50Micros = h.quantile(0.50)
	st.P99Micros = h.quantile(0.99)
	st.MaxMicros = float64(h.maxNs.Load()) / 1000
	return st
}

// countHist is the same shape over small integer counts (neighbors
// processed per query): bucket i counts observations with value < 2^i.
type countHist struct {
	count   atomic.Int64
	buckets [24]atomic.Int64
}

func (h *countHist) observe(v int) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	b := 0
	for v >= 1<<b && b < len(h.buckets)-1 {
		b++
	}
	h.buckets[b].Add(1)
}

func (h *countHist) quantile(q float64) int {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum >= target {
			return 1 << b
		}
	}
	return 1 << (len(h.buckets) - 1)
}

// LatencyStats summarizes one latency population. Quantiles are upper
// estimates from a power-of-two histogram (within 2× of the true value);
// Mean and Max are exact.
type LatencyStats struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	MaxMicros  float64 `json:"max_us"`
}

// QueryStats reports the query engine's service-level picture: cold
// (computed) versus cached (result-cache hit) latency populations, and the
// distribution of neighbors Algorithm 2 processed on cold queries. The JSON
// tags are the wire schema of GET /v1/stats ("query_stats").
type QueryStats struct {
	Cold   LatencyStats `json:"cold"`
	Cached LatencyStats `json:"cached"`
	// NeighborsProcessedP50/P99 are upper-estimate quantiles of
	// ProcessedNeighbors across cold queries.
	NeighborsProcessedP50 int `json:"neighbors_processed_p50"`
	NeighborsProcessedP99 int `json:"neighbors_processed_p99"`
	// DeadlineExceeded counts queries that failed with ErrDeadlineExceeded:
	// their context deadline expired before (or between) the pipeline
	// stages. Neither latency population includes them.
	DeadlineExceeded int64 `json:"deadline_exceeded"`
}

// queryMetrics is the System's recorder.
type queryMetrics struct {
	cold             latencyHist
	cached           latencyHist
	neighbors        countHist
	deadlineExceeded atomic.Int64
}

func (m *queryMetrics) snapshot() QueryStats {
	return QueryStats{
		Cold:                  m.cold.snapshot(),
		Cached:                m.cached.snapshot(),
		NeighborsProcessedP50: m.neighbors.quantile(0.50),
		NeighborsProcessedP99: m.neighbors.quantile(0.99),
		DeadlineExceeded:      m.deadlineExceeded.Load(),
	}
}

// QueryStats returns the cold/cached latency histograms' summaries and the
// neighbors-processed distribution. Served under GET /v1/stats (query_stats).
func (s *System) QueryStats() QueryStats {
	return s.metrics.snapshot()
}

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

package locater

import (
	"math"
	"sync/atomic"
	"time"
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

// mergeLatency folds per-shard latency summaries into one population:
// counts sum, means combine weighted by count, and the quantiles and
// maximum take the worst shard. Quantiles merged this way remain upper
// estimates — consistent with the power-of-two histograms they come from —
// because the true cluster-wide quantile can never exceed the worst
// per-shard one.
func mergeLatency(parts ...LatencyStats) LatencyStats {
	var out LatencyStats
	var weighted float64
	for _, p := range parts {
		out.Count += p.Count
		weighted += p.MeanMicros * float64(p.Count)
		out.P50Micros = math.Max(out.P50Micros, p.P50Micros)
		out.P99Micros = math.Max(out.P99Micros, p.P99Micros)
		out.MaxMicros = math.Max(out.MaxMicros, p.MaxMicros)
	}
	if out.Count > 0 {
		out.MeanMicros = weighted / float64(out.Count)
	}
	return out
}

// MergeQueryStats folds per-shard QueryStats into one cluster-level
// summary: counts and counters sum, latency populations merge per
// mergeLatency, and the neighbors-processed quantiles take the worst shard
// (upper estimates, like the per-shard figures themselves).
func MergeQueryStats(parts ...QueryStats) QueryStats {
	var out QueryStats
	cold := make([]LatencyStats, len(parts))
	cached := make([]LatencyStats, len(parts))
	for i, p := range parts {
		cold[i], cached[i] = p.Cold, p.Cached
		if p.NeighborsProcessedP50 > out.NeighborsProcessedP50 {
			out.NeighborsProcessedP50 = p.NeighborsProcessedP50
		}
		if p.NeighborsProcessedP99 > out.NeighborsProcessedP99 {
			out.NeighborsProcessedP99 = p.NeighborsProcessedP99
		}
		out.DeadlineExceeded += p.DeadlineExceeded
	}
	out.Cold = mergeLatency(cold...)
	out.Cached = mergeLatency(cached...)
	return out
}

// mergeTier sums two cache tiers' sizes, bounds, and counters.
func mergeTier(a, b CacheTierStats) CacheTierStats {
	return CacheTierStats{
		Size:          a.Size + b.Size,
		Capacity:      a.Capacity + b.Capacity,
		Hits:          a.Hits + b.Hits,
		Misses:        a.Misses + b.Misses,
		Evictions:     a.Evictions + b.Evictions,
		Invalidations: a.Invalidations + b.Invalidations,
	}
}

// MergeCacheStats folds per-shard cache statistics into the cluster-level
// picture: every tier's sizes, capacities, and counters sum (each shard
// owns independent caches, so the totals are exact), the occupancy index
// and segment tier sum their shapes and traffic, and Enabled reports
// whether any shard runs the caching engine. The occupancy bucket width
// and segment seal threshold are taken from the first shard (shards share
// one configuration); ColdTier reports whether any shard spills segments
// to disk.
func MergeCacheStats(parts ...CacheStats) CacheStats {
	var out CacheStats
	for _, p := range parts {
		out.Enabled = out.Enabled || p.Enabled
		out.GraphEdges += p.GraphEdges
		out.Affinity = mergeTier(out.Affinity, p.Affinity)
		out.CoarseModels = mergeTier(out.CoarseModels, p.CoarseModels)
		out.CoarseGapAnswers = mergeTier(out.CoarseGapAnswers, p.CoarseGapAnswers)
		out.Results = mergeTier(out.Results, p.Results)
		occ := &out.Occupancy
		if occ.Bucket == 0 {
			occ.Bucket = p.Occupancy.Bucket
		}
		occ.Buckets += p.Occupancy.Buckets
		occ.Entries += p.Occupancy.Entries
		occ.Lookups += p.Occupancy.Lookups
		seg := &out.Segments
		if seg.MaxEvents == 0 {
			seg.MaxEvents = p.Segments.MaxEvents
			seg.BlockEvents = p.Segments.BlockEvents
		}
		seg.ColdTier = seg.ColdTier || p.Segments.ColdTier
		seg.Segments += p.Segments.Segments
		seg.SegmentEvents += p.Segments.SegmentEvents
		seg.HeadEvents += p.Segments.HeadEvents
		seg.EncodedBytes += p.Segments.EncodedBytes
		seg.Seals += p.Segments.Seals
		seg.SealFailures += p.Segments.SealFailures
		seg.PageIns += p.Segments.PageIns
		seg.DecodedBytes += p.Segments.DecodedBytes
		seg.CacheHits += p.Segments.CacheHits
		seg.CacheSize += p.Segments.CacheSize
		seg.CacheCapacity += p.Segments.CacheCapacity
		seg.CachedBytes += p.Segments.CachedBytes
		seg.DecodeFailures += p.Segments.DecodeFailures
		seg.LookupErrors += p.Segments.LookupErrors
		seg.PointLookups += p.Segments.PointLookups
		seg.LookupDecodedBytes += p.Segments.LookupDecodedBytes
		seg.BlockSkips += p.Segments.BlockSkips
		seg.IndexLoads += p.Segments.IndexLoads
		seg.Compactions += p.Segments.Compactions
		seg.CompactionFailures += p.Segments.CompactionFailures
		seg.Backend.MappedFiles += p.Segments.Backend.MappedFiles
		seg.Backend.MappedBytes += p.Segments.Backend.MappedBytes
		seg.Backend.Remaps += p.Segments.Backend.Remaps
		seg.Backend.Rewrites += p.Segments.Backend.Rewrites
		seg.Backend.RewriteFailures += p.Segments.Backend.RewriteFailures
		seg.Backend.ReclaimedBytes += p.Segments.Backend.ReclaimedBytes
		cl := &out.Cleanse
		cl.Ingested += p.Cleanse.Ingested
		cl.Kept += p.Cleanse.Kept
		cl.Duplicates += p.Cleanse.Duplicates
		cl.Reassociations += p.Cleanse.Reassociations
		cl.Oscillations += p.Cleanse.Oscillations
		cl.ImpossibleTransitions += p.Cleanse.ImpossibleTransitions
		cl.FlaggedDevices += p.Cleanse.FlaggedDevices
		cl.Quarantined += p.Cleanse.Quarantined
		cl.QuarantineEvicted += p.Cleanse.QuarantineEvicted
		mc := &out.Maintenance.Coarse
		mc.TrainNanos += p.Maintenance.Coarse.TrainNanos
		mc.Trains += p.Maintenance.Coarse.Trains
		ma := &out.Maintenance.Affinity
		ma.FallbackNanos += p.Maintenance.Affinity.FallbackNanos
		ma.ScopedKept += p.Maintenance.Affinity.ScopedKept
		ma.ScopedStale += p.Maintenance.Affinity.ScopedStale
		ma.TrackedDevices += p.Maintenance.Affinity.TrackedDevices
	}
	return out
}

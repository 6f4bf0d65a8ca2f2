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

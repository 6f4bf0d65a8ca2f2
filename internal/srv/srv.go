// Package srv implements the HTTP JSON API around a LOCATER deployment: the
// online query/ingest surface that applications (occupancy dashboards, HVAC
// controllers, exposure analysis) integrate with. It is deliberately thin:
// all semantics live behind the locater.Locater service interface, so the
// same handlers serve a single-building System or a sharded
// internal/cluster.Cluster. The API is versioned under /v1/ (the unversioned
// paths remain as legacy aliases) and every error is the uniform
// ErrorEnvelope.
package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"locater"
	"locater/internal/event"
)

// Server wraps a LOCATER deployment with HTTP handlers. It holds no lock of
// its own: the engine is safe for concurrent use (sharded model cache,
// shared store read locks), so request handlers run fully in parallel on
// Go's per-connection serving goroutines.
type Server struct {
	sys locater.Locater
	mux *http.ServeMux

	// batchSem bounds the number of batch requests executing at once when
	// admission control is disabled (the pre-admission behavior); with
	// admission enabled the batch admitQueue plays that role.
	batchSem chan struct{}

	// admission is the filled configuration; the queues are nil when
	// admission is disabled.
	admission                AdmissionOptions
	locateQ, batchQ, ingestQ *admitQueue

	started time.Time
}

// Options configures optional server behavior.
type Options struct {
	// Admission configures overload degradation (bounded queues,
	// deadline-aware rejection, batch shedding). The zero value enables it
	// with defaults; set Admission.Disabled for the unbounded behavior.
	Admission AdmissionOptions
}

// New builds the HTTP handler around an assembled engine (a *locater.System
// or a sharded cluster.Cluster) with default options (admission control
// enabled).
func New(sys locater.Locater) *Server { return NewWithOptions(sys, Options{}) }

// NewWithOptions builds the HTTP handler with explicit options.
func NewWithOptions(sys locater.Locater, opts Options) *Server {
	s := &Server{
		sys:       sys,
		mux:       http.NewServeMux(),
		batchSem:  make(chan struct{}, 4),
		admission: opts.Admission,
		started:   time.Now(),
	}
	if !opts.Admission.Disabled {
		s.admission = defaultAdmission(opts.Admission)
		s.locateQ = newAdmitQueue(s.admission.Locate)
		s.batchQ = newAdmitQueue(s.admission.Batch)
		s.ingestQ = newAdmitQueue(s.admission.Ingest)
		for _, q := range []*admitQueue{s.locateQ, s.batchQ, s.ingestQ} {
			q.configureAdaptive(s.admission.Static, s.admission.TargetQueueWait)
		}
	}
	// /v1/ is the versioned surface; the bare paths are legacy aliases for
	// clients written before versioning. Both share one handler set.
	for _, prefix := range []string{"", "/v1"} {
		s.mux.HandleFunc(prefix+"/locate", s.handleLocate)
		s.mux.HandleFunc(prefix+"/locate/batch", s.handleLocateBatch)
		s.mux.HandleFunc(prefix+"/ingest", s.handleIngest)
		s.mux.HandleFunc(prefix+"/stats", s.handleStats)
		s.mux.HandleFunc(prefix+"/quarantine", s.handleQuarantine)
		s.mux.HandleFunc(prefix+"/healthz", s.handleHealth)
	}
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// handleNotFound answers every unregistered path with the uniform envelope
// instead of the standard library's plain-text 404.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotFound, fmt.Sprintf("no such endpoint %s", r.URL.Path))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// EnablePprof mounts Go's runtime profiler under /debug/pprof/ (CPU and
// heap profiles, goroutine/mutex/block dumps, execution traces). Off by
// default — the endpoints expose internals and can be heavy — and gated
// behind locater-serve's -pprof flag. Call during setup, before serving.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// LocateResponse is the JSON shape of a localization answer.
type LocateResponse struct {
	Device   string  `json:"device"`
	Time     string  `json:"time"`
	Outside  bool    `json:"outside"`
	Region   string  `json:"region,omitempty"`
	Room     string  `json:"room,omitempty"`
	RoomProb float64 `json:"room_probability,omitempty"`
	Repaired bool    `json:"repaired"`
}

// BatchQuery is one query of a POST /locate/batch request.
type BatchQuery struct {
	Device string `json:"device"`
	// Time is RFC 3339 or the paper's "2006-01-02 15:04:05" layout;
	// empty means "now".
	Time string `json:"time"`
}

// BatchLocateRequest is the JSON body of POST /locate/batch.
type BatchLocateRequest struct {
	Queries []BatchQuery `json:"queries"`
	// Workers bounds the server-side worker pool; 0 uses GOMAXPROCS and
	// larger values are clamped to GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// DeadlineMillis is the whole-batch deadline in milliseconds; the
	// deadline_ms query parameter, when present, wins. 0 means the
	// server default.
	DeadlineMillis int `json:"deadline_ms,omitempty"`
}

// BatchLocateResult is one answer of a batch response. Error is per-query:
// one failing query does not fail the batch.
type BatchLocateResult struct {
	LocateResponse
	Error string `json:"error,omitempty"`
}

// BatchLocateResponse is the JSON shape of a batch answer, in request order.
type BatchLocateResponse struct {
	Results []BatchLocateResult `json:"results"`
}

// IngestEvent is the JSON shape of one streamed connectivity event.
type IngestEvent struct {
	Device string `json:"device"`
	// Time is RFC 3339 or the paper's "2006-01-02 15:04:05" layout.
	// Required: an event without a timestamp is rejected with 400 rather
	// than silently stamped with the server's clock.
	Time string `json:"time"`
	AP   string `json:"ap"`
}

// CacheTierResponse is the JSON shape of one cache tier's counters.
type CacheTierResponse struct {
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// OccupancyResponse is the JSON shape of the store's temporal
// occupancy-index stats (neighbor discovery).
type OccupancyResponse struct {
	BucketSeconds float64 `json:"bucket_seconds"`
	Buckets       int     `json:"buckets"`
	Entries       int     `json:"entries"`
	Lookups       int64   `json:"lookups"`
}

// SegmentsResponse is the JSON shape of the store's log-structured event
// layout: sealed-segment shape, encoded size, and seal/page-in traffic.
type SegmentsResponse struct {
	MaxEvents      int   `json:"max_events"`
	BlockEvents    int   `json:"block_events"`
	ColdTier       bool  `json:"cold_tier"`
	Segments       int   `json:"segments"`
	SegmentEvents  int   `json:"segment_events"`
	HeadEvents     int   `json:"head_events"`
	EncodedBytes   int64 `json:"encoded_bytes"`
	Seals          int64 `json:"seals"`
	SealFailures   int64 `json:"seal_failures"`
	PageIns        int64 `json:"page_ins"`
	DecodedBytes   int64 `json:"decoded_bytes"`
	CacheHits      int64 `json:"cache_hits"`
	CacheSize      int   `json:"cache_size"`
	CacheCapacity  int   `json:"cache_capacity"`
	DecodeFailures int64 `json:"decode_failures"`
	// ResidentBytesHeap approximates the decoded-block cache's Go-heap
	// footprint; ResidentBytesMmap is the OS-owned mapped residency of the
	// cold tier's segment files (zero without the mmap backend). Together
	// they split "resident" into the part the GC sees and the part the
	// kernel can evict under pressure.
	ResidentBytesHeap int64 `json:"resident_bytes_heap"`
	ResidentBytesMmap int64 `json:"resident_bytes_mmap"`
	// PointLookups / LookupDecodedBytes gate the block tentpole: their
	// ratio is bytes decoded per point lookup. BlockSkips counts blocks
	// pruned undecoded via the block index; IndexLoads counts trailer
	// parses.
	PointLookups       int64 `json:"point_lookups"`
	LookupDecodedBytes int64 `json:"lookup_decoded_bytes"`
	BlockSkips         int64 `json:"block_skips"`
	IndexLoads         int64 `json:"index_loads"`
	// Compactions / CompactionFailures count checkpoint-time runt-segment
	// merges and the merges abandoned on error.
	Compactions        int64 `json:"compactions"`
	CompactionFailures int64 `json:"compaction_failures"`
	// Cold-tier backend counters: mapped file/byte residency, remaps after
	// file growth, and checkpoint-time dead-record reclamation.
	MappedFiles     int   `json:"mapped_files"`
	Remaps          int64 `json:"remaps"`
	Rewrites        int64 `json:"rewrites"`
	RewriteFailures int64 `json:"rewrite_failures"`
	ReclaimedBytes  int64 `json:"reclaimed_bytes"`
}

// CachesResponse is the JSON shape of the caching layer's stats: the global
// affinity graph, the three bounded tiers, the store's occupancy index, the
// segmented event layout, the ingest-time cleansing stage, and the write
// path's model-maintenance counters.
type CachesResponse struct {
	Enabled      bool                `json:"enabled"`
	GraphEdges   int                 `json:"graph_edges"`
	Affinity     CacheTierResponse   `json:"affinity"`
	CoarseModels CacheTierResponse   `json:"coarse_models"`
	Results      CacheTierResponse   `json:"results"`
	Occupancy    OccupancyResponse   `json:"occupancy"`
	Segments     SegmentsResponse    `json:"segments"`
	Cleanse      CleanseResponse     `json:"cleanse"`
	Maintenance  MaintenanceResponse `json:"maintenance"`
}

// CleanseResponse is the JSON shape of the ingest-time cleansing stage's
// per-rule counters (zero when cleansing is off).
type CleanseResponse struct {
	Ingested              int64 `json:"ingested"`
	Kept                  int64 `json:"kept"`
	Duplicates            int64 `json:"duplicates"`
	Reassociations        int64 `json:"reassociations"`
	Oscillations          int64 `json:"oscillations"`
	ImpossibleTransitions int64 `json:"impossible_transitions"`
	FlaggedDevices        int64 `json:"flagged_devices"`
	Quarantined           int64 `json:"quarantined"`
	QuarantineEvicted     int64 `json:"quarantine_evicted"`
}

// MaintenanceResponse is the JSON shape of the write path's incremental
// model-maintenance counters: the coarse gap sufficient statistics and the
// affinity tier's scoped validation.
type MaintenanceResponse struct {
	Coarse struct {
		ObserveNanos int64 `json:"observe_nanos"`
		TrainNanos   int64 `json:"train_nanos"`
		Trains       int64 `json:"trains"`
		Rebuilds     int64 `json:"rebuilds"`
		OutOfOrder   int64 `json:"out_of_order"`
		StatsDevices int64 `json:"stats_devices"`
	} `json:"coarse"`
	Affinity struct {
		FallbackNanos       int64 `json:"fallback_nanos"`
		ScopedKept          int64 `json:"scoped_kept"`
		ScopedStale         int64 `json:"scoped_stale"`
		TrackedDevices      int64 `json:"tracked_devices"`
		CoOccurPairs        int64 `json:"cooccur_pairs"`
		CoOccurObservations int64 `json:"cooccur_observations"`
		CoOccurDropped      int64 `json:"cooccur_dropped"`
	} `json:"affinity"`
}

func cleanseResponseOf(cl locater.CleanseStats) CleanseResponse {
	return CleanseResponse{
		Ingested:              cl.Ingested,
		Kept:                  cl.Kept,
		Duplicates:            cl.Duplicates,
		Reassociations:        cl.Reassociations,
		Oscillations:          cl.Oscillations,
		ImpossibleTransitions: cl.ImpossibleTransitions,
		FlaggedDevices:        cl.FlaggedDevices,
		Quarantined:           cl.Quarantined,
		QuarantineEvicted:     cl.QuarantineEvicted,
	}
}

func maintenanceResponseOf(ms locater.MaintenanceStats) MaintenanceResponse {
	var out MaintenanceResponse
	out.Coarse.ObserveNanos = ms.Coarse.ObserveNanos
	out.Coarse.TrainNanos = ms.Coarse.TrainNanos
	out.Coarse.Trains = ms.Coarse.Trains
	out.Coarse.Rebuilds = ms.Coarse.Rebuilds
	out.Coarse.OutOfOrder = ms.Coarse.OutOfOrder
	out.Coarse.StatsDevices = ms.Coarse.StatsDevices
	out.Affinity.FallbackNanos = ms.Affinity.FallbackNanos
	out.Affinity.ScopedKept = ms.Affinity.ScopedKept
	out.Affinity.ScopedStale = ms.Affinity.ScopedStale
	out.Affinity.TrackedDevices = ms.Affinity.TrackedDevices
	out.Affinity.CoOccurPairs = ms.Affinity.CoOccurPairs
	out.Affinity.CoOccurObservations = ms.Affinity.CoOccurObservations
	out.Affinity.CoOccurDropped = ms.Affinity.CoOccurDropped
	return out
}

// PersistResponse is the JSON shape of the durable event store's stats,
// present only on servers backed by a WAL directory.
type PersistResponse struct {
	Segments   int    `json:"segments"`
	LastLSN    uint64 `json:"last_lsn"`
	DurableLSN uint64 `json:"durable_lsn"`
}

// LatencyResponse is the JSON shape of one latency population's summary.
// Quantiles are upper estimates from a power-of-two histogram (within 2×);
// mean and max are exact.
type LatencyResponse struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	MaxMicros  float64 `json:"max_us"`
}

// QueryStatsResponse is the JSON shape of the query engine's service-level
// stats: cold (computed) vs cached (result-cache hit) latency, plus the
// distribution of neighbors Algorithm 2 processed on cold queries.
type QueryStatsResponse struct {
	Cold               LatencyResponse `json:"cold"`
	Cached             LatencyResponse `json:"cached"`
	NeighborsProcessed struct {
		P50 int `json:"p50"`
		P99 int `json:"p99"`
	} `json:"neighbors_processed"`
	// DeadlineExceeded counts queries that failed with the engine's
	// deadline error (context expired at a pipeline stage boundary).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
}

// ShardResponse is one shard's counters inside the cluster stats block.
// Summing events/devices/queries across shards reproduces the top-level
// figures (the merged counters reconcile exactly with per-shard sums).
type ShardResponse struct {
	Index    int              `json:"index"`
	Building string           `json:"building"`
	Events   int              `json:"events"`
	Devices  int              `json:"devices"`
	Queries  int              `json:"queries"`
	Persist  *PersistResponse `json:"persist,omitempty"`
}

// ClusterResponse is the topology block served when the engine is sharded.
type ClusterResponse struct {
	Shards   int             `json:"shards"`
	ShardBy  string          `json:"shard_by"`
	PerShard []ShardResponse `json:"per_shard"`
}

// StatsResponse reports deployment counters (summed across shards on a
// cluster). The legacy flat cache_edges / cache_hits / cache_misses fields
// mirror the affinity tier (pre-cache-layer clients read them); caches
// carries the full per-tier picture; cluster appears only on sharded
// deployments.
type StatsResponse struct {
	Events       int                `json:"events"`
	Devices      int                `json:"devices"`
	Queries      int                `json:"queries"`
	CacheEdges   int                `json:"cache_edges"`
	CacheHits    int64              `json:"cache_hits"`
	CacheMisses  int64              `json:"cache_misses"`
	Caches       CachesResponse     `json:"caches"`
	QueryStats   QueryStatsResponse `json:"query_stats"`
	Admission    AdmissionResponse  `json:"admission"`
	Persist      *PersistResponse   `json:"persist,omitempty"`
	Cluster      *ClusterResponse   `json:"cluster,omitempty"`
	UptimeSecond int64              `json:"uptime_seconds"`
	Building     string             `json:"building"`
}

// parseDeadline reads the per-request deadline_ms query parameter. Zero
// means "no client deadline" (the admission default, if any, applies).
func parseDeadline(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("deadline_ms")
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("bad deadline_ms %q (want a positive integer)", v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// requestContext derives the request's working context: the client deadline
// (deadline_ms) clamped to MaxDeadline, or the admission DefaultDeadline
// when the client set none. With admission disabled and no client deadline,
// the request runs unbounded (the pre-admission behavior).
func (s *Server) requestContext(r *http.Request, deadline time.Duration) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.locateQ != nil {
		if deadline <= 0 {
			deadline = s.admission.DefaultDeadline
		}
		if deadline > s.admission.MaxDeadline {
			deadline = s.admission.MaxDeadline
		}
	}
	if deadline <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, deadline)
}

// admitted runs the admission gate for one request class. It returns a
// finish func to defer (records service time and frees the slot; a no-op
// when admission is off) and reports whether the request may proceed; on
// false the 429 has already been written.
func (s *Server) admitted(w http.ResponseWriter, ctx context.Context, q *admitQueue, shedAbove, peerOccupancy float64) (func(), bool) {
	if q == nil {
		return func() {}, true
	}
	release, rej := q.admit(ctx, shedAbove, peerOccupancy)
	if rej != nil {
		writeAdmitError(w, rej)
		return nil, false
	}
	start := time.Now()
	return func() { release(time.Since(start)) }, true
}

// finishQuery maps a query error to its response: ErrDeadlineExceeded is a
// distinct 504 with code deadline_exceeded (counted on the class's queue),
// anything else is a 500.
func (s *Server) finishQuery(w http.ResponseWriter, q *admitQueue, err error) {
	if errors.Is(err, locater.ErrDeadlineExceeded) {
		if q != nil {
			q.execDeadline.Add(1)
		}
		writeAdmitError(w, &admitError{
			status: http.StatusGatewayTimeout,
			code:   codeDeadlineExceeded,
			msg:    "deadline exceeded during query execution",
		})
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error())
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	device := r.URL.Query().Get("device")
	if device == "" {
		httpError(w, http.StatusBadRequest, "missing device parameter")
		return
	}
	tq, err := parseTimeOrNow(r.URL.Query().Get("time"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline, err := parseDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, deadline)
	defer cancel()
	finish, ok := s.admitted(w, ctx, s.locateQ, -1, 0)
	if !ok {
		return
	}
	defer finish()
	res, err := s.sys.LocateContext(ctx, locater.DeviceID(device), tq)
	if err != nil {
		s.finishQuery(w, s.locateQ, err)
		return
	}
	writeJSON(w, locateResponseOf(device, tq, res))
}

func locateResponseOf(device string, tq time.Time, res locater.Result) LocateResponse {
	return LocateResponse{
		Device:   device,
		Time:     tq.UTC().Format(time.RFC3339),
		Outside:  res.Outside,
		Region:   string(res.Region),
		Room:     string(res.Room),
		RoomProb: res.RoomProbability,
		Repaired: res.Repaired,
	}
}

// maxBatchBody bounds a /locate/batch request body (8 MiB ≈ several
// hundred thousand queries) so one client cannot exhaust server memory.
const maxBatchBody = 8 << 20

// handleLocateBatch answers many queries in one request via the system's
// bounded worker pool (POST /locate/batch). Results come back in request
// order with per-query errors. The requested worker count is advisory —
// the server clamps it to GOMAXPROCS — and batchSem bounds how many batch
// requests execute at once, so the total goroutine pool stays bounded
// (clamp × semaphore) no matter how many clients connect; excess requests
// queue on the semaphore.
func (s *Server) handleLocateBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var in BatchLocateRequest
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if max := runtime.GOMAXPROCS(0); in.Workers > max {
		in.Workers = max
	}
	if len(in.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "empty queries")
		return
	}
	queries := make([]locater.Query, len(in.Queries))
	for i, q := range in.Queries {
		if q.Device == "" {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("query %d: missing device", i))
			return
		}
		tq, err := parseTimeOrNow(q.Time)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		queries[i] = locater.Query{Device: locater.DeviceID(q.Device), Time: tq}
	}
	deadline, err := parseDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if deadline <= 0 && in.DeadlineMillis > 0 {
		deadline = time.Duration(in.DeadlineMillis) * time.Millisecond
	}
	ctx, cancel := s.requestContext(r, deadline)
	defer cancel()
	// Admission (or, with admission off, the legacy semaphore) is taken
	// only around the actual work — after the body is fully read and
	// validated — so a slow or stalling client cannot hold a slot while
	// trickling its request in. Batch requests shed first: they are
	// rejected once either the batch queue or the locate queue crosses
	// ShedBatchAt, so single-query traffic keeps flowing under overload.
	if s.batchQ != nil {
		peer := s.locateQ.occupancy()
		finish, ok := s.admitted(w, ctx, s.batchQ, s.admission.ShedBatchAt, peer)
		if !ok {
			return
		}
		defer finish()
	} else {
		s.batchSem <- struct{}{}
		defer func() { <-s.batchSem }()
	}
	batch := s.sys.LocateBatchContext(ctx, queries, in.Workers)
	resp := BatchLocateResponse{Results: make([]BatchLocateResult, len(batch))}
	deadlined := 0
	for i, br := range batch {
		out := BatchLocateResult{
			LocateResponse: locateResponseOf(string(br.Query.Device), br.Query.Time, br.Result),
		}
		if br.Err != nil {
			out.Error = br.Err.Error()
			if errors.Is(br.Err, locater.ErrDeadlineExceeded) {
				deadlined++
			}
		}
		resp.Results[i] = out
	}
	// A batch whose every query died on the deadline is one whole-request
	// 504; partial completions return 200 with per-query errors as before.
	if deadlined == len(batch) && len(batch) > 0 {
		s.finishQuery(w, s.batchQ, locater.ErrDeadlineExceeded)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var in []IngestEvent
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	events := make([]locater.Event, 0, len(in))
	for i, e := range in {
		t, err := parseTime(e.Time)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("event %d: %v", i, err))
			return
		}
		events = append(events, locater.Event{
			Device: locater.DeviceID(e.Device),
			Time:   t,
			AP:     locater.APID(e.AP),
		})
	}
	deadline, err := parseDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, deadline)
	defer cancel()
	finish, ok := s.admitted(w, ctx, s.ingestQ, -1, 0)
	if !ok {
		return
	}
	defer finish()
	if err := s.sys.Ingest(events); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, map[string]int{"ingested": len(events)})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	cs := s.sys.CacheStats()
	resp := StatsResponse{
		Events:      s.sys.NumEvents(),
		Devices:     s.sys.NumDevices(),
		Queries:     s.sys.NumQueries(),
		CacheEdges:  cs.GraphEdges,
		CacheHits:   cs.Affinity.Hits,
		CacheMisses: cs.Affinity.Misses,
		Caches: CachesResponse{
			Enabled:      cs.Enabled,
			GraphEdges:   cs.GraphEdges,
			Affinity:     cacheTierResponseOf(cs.Affinity),
			CoarseModels: cacheTierResponseOf(cs.CoarseModels),
			Results:      cacheTierResponseOf(cs.Results),
			Occupancy: OccupancyResponse{
				BucketSeconds: cs.Occupancy.Bucket.Seconds(),
				Buckets:       cs.Occupancy.Buckets,
				Entries:       cs.Occupancy.Entries,
				Lookups:       cs.Occupancy.Lookups,
			},
			Segments: SegmentsResponse{
				MaxEvents:          cs.Segments.MaxEvents,
				BlockEvents:        cs.Segments.BlockEvents,
				ColdTier:           cs.Segments.ColdTier,
				Segments:           cs.Segments.Segments,
				SegmentEvents:      cs.Segments.SegmentEvents,
				HeadEvents:         cs.Segments.HeadEvents,
				EncodedBytes:       cs.Segments.EncodedBytes,
				Seals:              cs.Segments.Seals,
				SealFailures:       cs.Segments.SealFailures,
				PageIns:            cs.Segments.PageIns,
				DecodedBytes:       cs.Segments.DecodedBytes,
				CacheHits:          cs.Segments.CacheHits,
				CacheSize:          cs.Segments.CacheSize,
				CacheCapacity:      cs.Segments.CacheCapacity,
				DecodeFailures:     cs.Segments.DecodeFailures,
				ResidentBytesHeap:  cs.Segments.CachedBytes,
				ResidentBytesMmap:  cs.Segments.Backend.MappedBytes,
				PointLookups:       cs.Segments.PointLookups,
				LookupDecodedBytes: cs.Segments.LookupDecodedBytes,
				BlockSkips:         cs.Segments.BlockSkips,
				IndexLoads:         cs.Segments.IndexLoads,
				Compactions:        cs.Segments.Compactions,
				CompactionFailures: cs.Segments.CompactionFailures,
				MappedFiles:        cs.Segments.Backend.MappedFiles,
				Remaps:             cs.Segments.Backend.Remaps,
				Rewrites:           cs.Segments.Backend.Rewrites,
				RewriteFailures:    cs.Segments.Backend.RewriteFailures,
				ReclaimedBytes:     cs.Segments.Backend.ReclaimedBytes,
			},
			Cleanse:     cleanseResponseOf(cs.Cleanse),
			Maintenance: maintenanceResponseOf(cs.Maintenance),
		},
		QueryStats:   queryStatsResponseOf(s.sys.QueryStats()),
		UptimeSecond: int64(time.Since(s.started).Seconds()),
	}
	if b := s.sys.Building(); b != nil {
		resp.Building = b.Name()
	}
	if sh, ok := s.sys.(locater.Sharded); ok {
		cluster := &ClusterResponse{Shards: sh.NumShards(), ShardBy: sh.ShardPolicy()}
		for _, si := range sh.ShardInfos() {
			sr := ShardResponse{
				Index:    si.Index,
				Building: si.Building,
				Events:   si.Events,
				Devices:  si.Devices,
				Queries:  si.Queries,
			}
			if si.Durable {
				sr.Persist = &PersistResponse{Segments: si.Segments, LastLSN: si.LastLSN, DurableLSN: si.DurableLSN}
			}
			cluster.PerShard = append(cluster.PerShard, sr)
		}
		resp.Cluster = cluster
	}
	if s.locateQ != nil {
		resp.Admission = AdmissionResponse{
			Enabled: true,
			Locate:  admissionQueueResponseOf(s.locateQ),
			Batch:   admissionQueueResponseOf(s.batchQ),
			Ingest:  admissionQueueResponseOf(s.ingestQ),
		}
	}
	if segments, lastLSN, durableLSN, ok := s.sys.PersistStats(); ok {
		resp.Persist = &PersistResponse{Segments: segments, LastLSN: lastLSN, DurableLSN: durableLSN}
	}
	writeJSON(w, resp)
}

func latencyResponseOf(l locater.LatencyStats) LatencyResponse {
	return LatencyResponse{
		Count:      l.Count,
		MeanMicros: l.MeanMicros,
		P50Micros:  l.P50Micros,
		P99Micros:  l.P99Micros,
		MaxMicros:  l.MaxMicros,
	}
}

func queryStatsResponseOf(qs locater.QueryStats) QueryStatsResponse {
	out := QueryStatsResponse{
		Cold:   latencyResponseOf(qs.Cold),
		Cached: latencyResponseOf(qs.Cached),
	}
	out.NeighborsProcessed.P50 = qs.NeighborsProcessedP50
	out.NeighborsProcessed.P99 = qs.NeighborsProcessedP99
	out.DeadlineExceeded = qs.DeadlineExceeded
	return out
}

func cacheTierResponseOf(t locater.CacheTierStats) CacheTierResponse {
	return CacheTierResponse{
		Size:          t.Size,
		Capacity:      t.Capacity,
		Hits:          t.Hits,
		Misses:        t.Misses,
		Evictions:     t.Evictions,
		Invalidations: t.Invalidations,
	}
}

// QuarantineEntryResponse is the JSON shape of one cleansing-rejected
// event.
type QuarantineEntryResponse struct {
	Device string `json:"device"`
	Time   string `json:"time"`
	AP     string `json:"ap"`
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
	At     string `json:"at"`
}

// QuarantineResponse is the JSON shape of GET /v1/quarantine: the cleansing
// counters plus the newest quarantined events, newest first.
type QuarantineResponse struct {
	Enabled bool                      `json:"enabled"`
	Stats   CleanseResponse           `json:"stats"`
	Entries []QuarantineEntryResponse `json:"entries"`
}

// handleQuarantine serves the ingest-time cleansing stage's quarantine ring
// (GET /v1/quarantine?limit=N). Engines without a quarantine surface (e.g.
// remote clients) answer 404; engines with cleansing disabled answer an
// empty ring with enabled=false.
func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q, ok := s.sys.(locater.Quarantiner)
	if !ok {
		httpError(w, http.StatusNotFound, "engine has no quarantine surface")
		return
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q (want a positive integer)", v))
			return
		}
		limit = n
	}
	resp := QuarantineResponse{
		Enabled: q.CleansingEnabled(),
		Stats:   cleanseResponseOf(q.CleanseStats()),
		Entries: []QuarantineEntryResponse{},
	}
	for _, e := range q.Quarantine(limit) {
		resp.Entries = append(resp.Entries, QuarantineEntryResponse{
			Device: string(e.Event.Device),
			Time:   e.Event.Time.UTC().Format(time.RFC3339Nano),
			AP:     string(e.Event.AP),
			Rule:   string(e.Rule),
			Reason: e.Reason,
			At:     e.At.UTC().Format(time.RFC3339Nano),
		})
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// parseTime accepts RFC 3339 or the CSV layout. Empty is an error: recorded
// data (ingest events) must carry its real timestamp — silently stamping
// "now" would fabricate history. Query parameters, where "now" is the
// natural default, go through parseTimeOrNow instead.
func parseTime(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, fmt.Errorf("missing time")
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return t, nil
	}
	if t, err := time.Parse(event.TimeLayout, v); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("unparseable time %q (want RFC3339 or %q)", v, event.TimeLayout)
}

// parseTimeOrNow is parseTime with the query-side default: an empty value
// means "now" (the real-time localization question "where is d?").
func parseTimeOrNow(v string) (time.Time, error) {
	if v == "" {
		return time.Now(), nil
	}
	return parseTime(v)
}

// writeJSON marshals v fully before touching the ResponseWriter, so the
// response is always either one complete JSON body or a clean JSON error —
// never a partially written body with error text appended (the pre-fix
// behavior: http.Error after a failed streaming Encode corrupted the
// already-started body). A write error means the client is gone; it is
// logged, not answered.
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		log.Printf("srv: writing response: %v", err)
	}
}

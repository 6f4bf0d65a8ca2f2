// Package srv implements the HTTP JSON API around a LOCATER deployment: the
// online query/ingest surface that applications (occupancy dashboards, HVAC
// controllers, exposure analysis) integrate with. It is deliberately thin:
// all semantics live behind the locater.Locater service interface, which
// *locater.System implements for one building. Every endpoint lives under
// /v1/, every error is the uniform ErrorEnvelope, and the stats blocks are
// the engine's own stats structs: their JSON tags are the wire schema.
package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
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

	// admission is the filled configuration behind the three per-class
	// queues.
	admission                AdmissionOptions
	locateQ, batchQ, ingestQ *admitQueue

	started time.Time
}

// Options configures optional server behavior.
type Options struct {
	// Admission configures overload degradation (bounded queues,
	// deadline-aware rejection, batch shedding). Zero fields take the
	// defaults.
	Admission AdmissionOptions
}

// New builds the HTTP handler around an assembled engine (usually a
// *locater.System) with default options.
func New(sys locater.Locater) *Server { return NewWithOptions(sys, Options{}) }

// NewWithOptions builds the HTTP handler with explicit options.
func NewWithOptions(sys locater.Locater, opts Options) *Server {
	a := defaultAdmission(opts.Admission)
	s := &Server{
		sys:       sys,
		mux:       http.NewServeMux(),
		admission: a,
		locateQ:   newAdmitQueue(a.Locate, a.TargetQueueWait),
		batchQ:    newAdmitQueue(a.Batch, a.TargetQueueWait),
		ingestQ:   newAdmitQueue(a.Ingest, a.TargetQueueWait),
		started:   time.Now(),
	}
	s.mux.HandleFunc("/v1/locate", s.handleLocate)
	s.mux.HandleFunc("/v1/locate/batch", s.handleLocateBatch)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/quarantine", s.handleQuarantine)
	s.mux.HandleFunc("/v1/healthz", s.handleHealth)
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

// BatchQuery is one query of a POST /v1/locate/batch request.
type BatchQuery struct {
	Device string `json:"device"`
	// Time is RFC 3339 or the paper's "2006-01-02 15:04:05" layout;
	// empty means "now".
	Time string `json:"time"`
}

// BatchLocateRequest is the JSON body of POST /v1/locate/batch.
type BatchLocateRequest struct {
	Queries []BatchQuery `json:"queries"`
	// Workers bounds the server-side worker pool; 0 uses GOMAXPROCS and
	// larger values are clamped to GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// DeadlineMillis is the whole-batch deadline in milliseconds; the
	// deadline_ms query parameter, when present, wins. 0 means the
	// server default; a negative value is refused with 400.
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

// PersistResponse is the JSON shape of the durable event store's stats,
// present only on servers backed by a WAL directory.
type PersistResponse struct {
	Segments   int    `json:"segments"`
	LastLSN    uint64 `json:"last_lsn"`
	DurableLSN uint64 `json:"durable_lsn"`
}

// StatsResponse reports deployment counters. Caches and QueryStats are the
// engine's own stats structs — their JSON tags are the wire schema, so a
// counter added to the engine appears here and in internal/client without
// further code. Persist appears only on durable deployments.
type StatsResponse struct {
	Events       int                `json:"events"`
	Devices      int                `json:"devices"`
	Queries      int                `json:"queries"`
	Caches       locater.CacheStats `json:"caches"`
	QueryStats   locater.QueryStats `json:"query_stats"`
	Admission    AdmissionResponse  `json:"admission"`
	Persist      *PersistResponse   `json:"persist,omitempty"`
	UptimeSecond int64              `json:"uptime_seconds"`
	Building     string             `json:"building"`
}

// clientDeadline reads the request's deadline_ms: the parameter in query
// (the request's parsed query string) when present, else bodyMillis (the
// batch body's field; 0 on other endpoints).
// Zero means "no client deadline" (the admission default applies). A
// negative value from either source, or a query parameter that is not a
// positive integer, is the client's error. Values past MaxDeadline clamp to
// it before conversion, so a huge deadline_ms cannot overflow to a negative
// duration.
func (s *Server) clientDeadline(query url.Values, bodyMillis int64) (time.Duration, error) {
	if bodyMillis < 0 {
		return 0, fmt.Errorf("bad deadline_ms %d (want a positive integer)", bodyMillis)
	}
	ms := bodyMillis
	if v := query.Get("deadline_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("bad deadline_ms %q (want a positive integer)", v)
		}
		ms = n
	}
	if limit := s.admission.MaxDeadline; ms > int64(limit/time.Millisecond) {
		return limit, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// requestContext derives the request's working context: the client deadline
// (see clientDeadline), or the admission DefaultDeadline clamped to
// MaxDeadline when the client set none.
func (s *Server) requestContext(r *http.Request, deadline time.Duration) (context.Context, context.CancelFunc) {
	if deadline <= 0 {
		deadline = min(s.admission.DefaultDeadline, s.admission.MaxDeadline)
	}
	return context.WithTimeout(r.Context(), deadline)
}

// admitted runs the admission gate for one request class. It returns a
// finish func to defer (records service time and frees the slot) and
// reports whether the request may proceed; on false the 429 has already
// been written.
func (s *Server) admitted(w http.ResponseWriter, ctx context.Context, q *admitQueue, shedAbove, peerOccupancy float64) (func(), bool) {
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
		q.execDeadline.Add(1)
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
	// r.URL.Query parses the whole query string on every call: parse once.
	query := r.URL.Query()
	device := query.Get("device")
	if device == "" {
		httpError(w, http.StatusBadRequest, "missing device parameter")
		return
	}
	tq, err := parseTimeOrNow(query.Get("time"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline, err := s.clientDeadline(query, 0)
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

// maxRequestBody bounds a /v1/locate/batch or /v1/ingest request body
// (8 MiB ≈ a hundred thousand queries or events) so one client cannot
// exhaust server memory.
const maxRequestBody = 8 << 20

// handleLocateBatch answers many queries in one request via the system's
// bounded worker pool (POST /v1/locate/batch). Results come back in request
// order with per-query errors. The requested worker count is advisory —
// the server clamps it to GOMAXPROCS — and the batch admission queue bounds
// how many batch requests execute at once, so the total goroutine pool
// stays bounded (clamp × slots) no matter how many clients connect.
func (s *Server) handleLocateBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
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
	deadline, err := s.clientDeadline(r.URL.Query(), int64(in.DeadlineMillis))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, deadline)
	defer cancel()
	// Admission is taken only around the actual work — after the body is
	// fully read and validated — so a slow or stalling client cannot hold a
	// slot while trickling its request in. Batch requests shed first: they
	// are rejected once either the batch queue or the locate queue crosses
	// ShedBatchAt, so single-query traffic keeps flowing under overload.
	finish, ok := s.admitted(w, ctx, s.batchQ, s.admission.ShedBatchAt, s.locateQ.occupancy())
	if !ok {
		return
	}
	defer finish()
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
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
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
	deadline, err := s.clientDeadline(r.URL.Query(), 0)
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
		// Only a malformed event is the client's fault; anything else is
		// the engine failing to make the batch durable.
		status := http.StatusInternalServerError
		if errors.Is(err, locater.ErrInvalidEvent) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, map[string]int{"ingested": len(events)})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := StatsResponse{
		Events:     s.sys.NumEvents(),
		Devices:    s.sys.NumDevices(),
		Queries:    s.sys.NumQueries(),
		Caches:     s.sys.CacheStats(),
		QueryStats: s.sys.QueryStats(),
		Admission: AdmissionResponse{
			Locate: admissionQueueResponseOf(s.locateQ),
			Batch:  admissionQueueResponseOf(s.batchQ),
			Ingest: admissionQueueResponseOf(s.ingestQ),
		},
		UptimeSecond: int64(time.Since(s.started).Seconds()),
	}
	if b := s.sys.Building(); b != nil {
		resp.Building = b.Name()
	}
	if segments, lastLSN, durableLSN, ok := s.sys.PersistStats(); ok {
		resp.Persist = &PersistResponse{Segments: segments, LastLSN: lastLSN, DurableLSN: durableLSN}
	}
	writeJSON(w, resp)
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
	Stats   locater.CleanseStats      `json:"stats"`
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
		Stats:   q.CleanseStats(),
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

package srv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
)

var simStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

func newTestServer(t *testing.T) (*Server, *sim.Dataset) {
	t.Helper()
	sc, err := sim.DBH(2)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, 7, 99))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := locater.New(locater.Config{
		Building:           ds.Building,
		EnableCache:        true,
		HistoryDays:        7,
		PromotionsPerRound: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)
	return New(sys), ds
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestLocateEndpoint(t *testing.T) {
	s, ds := newTestServer(t)
	dev := ds.People[0].Device
	tq := simStart.AddDate(0, 0, 5).Add(11 * time.Hour)

	url := fmt.Sprintf("/v1/locate?device=%s&time=%s", dev, tq.Format(time.RFC3339))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("locate = %d: %s", rec.Code, rec.Body)
	}
	var resp LocateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Device != string(dev) {
		t.Errorf("device = %s", resp.Device)
	}
	if !resp.Outside && resp.Room == "" {
		t.Error("inside answer without a room")
	}
}

func TestLocateEndpointValidation(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		method string
		url    string
		code   int
	}{
		{http.MethodPost, "/v1/locate?device=x", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/locate", http.StatusBadRequest},
		{http.MethodGet, "/v1/locate?device=x&time=garbage", http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.url, nil))
		if rec.Code != tc.code {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.url, rec.Code, tc.code)
		}
	}
}

func TestLocateBatchEndpoint(t *testing.T) {
	s, ds := newTestServer(t)
	tq := simStart.AddDate(0, 0, 5).Add(11 * time.Hour).Format(time.RFC3339)
	req := BatchLocateRequest{
		Queries: []BatchQuery{
			{Device: string(ds.People[0].Device), Time: tq},
			{Device: string(ds.People[1].Device), Time: tq},
			{Device: string(ds.People[0].Device), Time: tq},
		},
		Workers: 2,
	}
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("locate/batch = %d: %s", rec.Code, rec.Body)
	}
	var resp BatchLocateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(req.Queries) {
		t.Fatalf("got %d results for %d queries", len(resp.Results), len(req.Queries))
	}
	for i, r := range resp.Results {
		if r.Device != req.Queries[i].Device {
			t.Errorf("result %d device = %s, want %s (order not preserved)", i, r.Device, req.Queries[i].Device)
		}
		if r.Error != "" {
			t.Errorf("result %d error: %s", i, r.Error)
		}
		if !r.Outside && r.Room == "" {
			t.Errorf("result %d inside without a room", i)
		}
	}
}

func TestLocateBatchEndpointValidation(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		method string
		body   string
		code   int
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed},
		{http.MethodPost, `not json`, http.StatusBadRequest},
		{http.MethodPost, `{"queries":[]}`, http.StatusBadRequest},
		{http.MethodPost, `{"queries":[{"device":"","time":""}]}`, http.StatusBadRequest},
		{http.MethodPost, `{"queries":[{"device":"d","time":"garbage"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(tc.method, "/v1/locate/batch", bytes.NewReader([]byte(tc.body))))
		if rec.Code != tc.code {
			t.Errorf("%s body %q = %d, want %d", tc.method, tc.body, rec.Code, tc.code)
		}
	}
}

func TestIngestEndpoint(t *testing.T) {
	s, ds := newTestServer(t)
	ap := ds.Building.AccessPoints()[0]
	body, _ := json.Marshal([]IngestEvent{
		{Device: "new-device", Time: "2026-01-11 09:00:00", AP: string(ap)},
		{Device: "new-device", Time: simStart.AddDate(0, 0, 6).Add(10 * time.Hour).Format(time.RFC3339), AP: string(ap)},
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	var resp map[string]int
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp["ingested"] != 2 {
		t.Errorf("ingested = %d", resp["ingested"])
	}

	// Bad payloads are the client's fault: 400, the last one for a body
	// over maxRequestBody (valid JSON, so only the cap can refuse it).
	for _, bad := range []string{
		`not json`,
		`[{"device":"d","time":"nope","ap":"a"}]`,
		`[{"device":"","time":"2026-01-11 09:00:00","ap":"a"}]`,
		`[` + strings.Repeat(" ", maxRequestBody) + `]`,
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(bad)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("payload %.40q = %d, want 400", bad, rec.Code)
		}
	}
	// GET not allowed.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ingest", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest = %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, ds := newTestServer(t)
	// One query so the counter moves.
	url := fmt.Sprintf("/v1/locate?device=%s&time=%s",
		ds.People[0].Device, simStart.AddDate(0, 0, 5).Add(11*time.Hour).Format(time.RFC3339))
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, url, nil))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Events == 0 || resp.Devices == 0 {
		t.Errorf("stats = %+v", resp)
	}
	if resp.Queries < 1 {
		t.Errorf("queries = %d, want ≥ 1", resp.Queries)
	}
	if resp.Building != ds.Building.Name() {
		t.Errorf("building = %s", resp.Building)
	}
}

func TestParseTime(t *testing.T) {
	if _, err := parseTime("2026-01-11 09:00:00"); err != nil {
		t.Errorf("CSV layout rejected: %v", err)
	}
	if _, err := parseTime("2026-01-11T09:00:00Z"); err != nil {
		t.Errorf("RFC3339 rejected: %v", err)
	}
	if _, err := parseTime("bogus"); err == nil {
		t.Error("garbage accepted")
	}
	// Empty is an error for recorded data (ingest must not fabricate
	// timestamps) …
	if _, err := parseTime(""); err == nil {
		t.Error("parseTime accepted an empty time")
	}
	// … but defaults to "now" for query parameters.
	got, err := parseTimeOrNow("")
	if err != nil || time.Since(got) > time.Minute {
		t.Errorf("parseTimeOrNow(\"\") = %v, %v", got, err)
	}
}

// TestIngestMissingTimeRejected: an ingest event without a timestamp must
// get a 400, not a silently fabricated server-side "now" (the pre-fix
// behavior, which planted phantom history at the ingest instant).
func TestIngestMissingTimeRejected(t *testing.T) {
	s, ds := newTestServer(t)
	before := mustStats(t, s).Events
	ap := ds.Building.AccessPoints()[0]
	body, _ := json.Marshal([]IngestEvent{
		{Device: "new-device", Time: "", AP: string(ap)},
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ingest with missing time = %d, want 400", rec.Code)
	}
	if code := errCode(t, rec); code != codeBadRequest {
		t.Errorf("error code = %q, want %q", code, codeBadRequest)
	}
	if after := mustStats(t, s).Events; after != before {
		t.Errorf("rejected batch changed event count: %d → %d", before, after)
	}
}

// TestIngestTimeOutsideNanosRejected: an event whose time int64
// nanoseconds cannot hold gets the 400 envelope and changes nothing. Acked,
// it would be stored with a wrapped timestamp (2300 came back as 1715).
func TestIngestTimeOutsideNanosRejected(t *testing.T) {
	s, ds := newTestServer(t)
	before := mustStats(t, s).Events
	ap := ds.Building.AccessPoints()[0]
	body, _ := json.Marshal([]IngestEvent{
		{Device: "new-device", Time: "2300-01-01T00:00:00Z", AP: string(ap)},
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ingest at 2300 = %d, want 400", rec.Code)
	}
	if code := errCode(t, rec); code != codeBadRequest {
		t.Errorf("error code = %q, want %q", code, codeBadRequest)
	}
	if after := mustStats(t, s).Events; after != before {
		t.Errorf("rejected batch changed event count: %d → %d", before, after)
	}
}

// failingIngest is an engine whose Ingest fails with a fixed error.
type failingIngest struct {
	locater.Locater
	err error
}

func (f failingIngest) Ingest([]locater.Event) error { return f.err }

// TestIngestErrorStatus: a batch the engine refuses as malformed is the
// client's fault (400); a batch it could not make durable is the server's
// (500) — a feed must retry the second and drop the first.
func TestIngestErrorStatus(t *testing.T) {
	body := `[{"device":"d","time":"2026-01-11 09:00:00","ap":"a"}]`
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("%w: empty AP for device d", locater.ErrInvalidEvent), http.StatusBadRequest, codeBadRequest},
		{fmt.Errorf("store: logging batch: %w", errors.New("wal: disk full")), http.StatusInternalServerError, codeInternal},
	}
	for _, tc := range cases {
		s := New(failingIngest{err: tc.err})
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
		if rec.Code != tc.status {
			t.Errorf("engine error %q = %d, want %d", tc.err, rec.Code, tc.status)
		}
		if code := errCode(t, rec); code != tc.code {
			t.Errorf("engine error %q: code %q, want %q", tc.err, code, tc.code)
		}
	}
}

// deadlineRecorder is an engine that answers every query as outside and
// records how long the request context had left when the query arrived.
type deadlineRecorder struct {
	locater.Locater
	left time.Duration
}

func (d *deadlineRecorder) record(ctx context.Context) {
	if dl, ok := ctx.Deadline(); ok {
		d.left = time.Until(dl)
	}
}

func (d *deadlineRecorder) LocateContext(ctx context.Context, _ locater.DeviceID, _ time.Time) (locater.Result, error) {
	d.record(ctx)
	return locater.Result{Outside: true}, nil
}

func (d *deadlineRecorder) LocateBatchContext(ctx context.Context, qs []locater.Query, _ int) []locater.BatchResult {
	d.record(ctx)
	out := make([]locater.BatchResult, len(qs))
	for i, q := range qs {
		out[i] = locater.BatchResult{Query: q, Result: locater.Result{Outside: true}}
	}
	return out
}

// TestClientDeadline: deadline_ms from the query string and from the batch
// body reach the engine as the same context deadline. Zero takes the 5 s
// default, values past MaxDeadline (30 s) clamp to it however large they
// are, and a negative value from either source is a 400.
func TestClientDeadline(t *testing.T) {
	const (
		locate = "/v1/locate?device=d&time=2026-01-07T11:00:00Z"
		batch  = "/v1/locate/batch"
		query  = `{"queries":[{"device":"d","time":"2026-01-07T11:00:00Z"}]`
	)
	cases := []struct {
		name, path, body string
		status           int
		want             time.Duration
	}{
		{"locate default", locate, "", http.StatusOK, 5 * time.Second},
		{"locate 1.5s", locate + "&deadline_ms=1500", "", http.StatusOK, 1500 * time.Millisecond},
		{"locate overflowing", locate + "&deadline_ms=9300000000000", "", http.StatusOK, 30 * time.Second},
		{"locate max int64", locate + "&deadline_ms=9223372036854775807", "", http.StatusOK, 30 * time.Second},
		{"locate negative", locate + "&deadline_ms=-5", "", http.StatusBadRequest, 0},
		{"locate zero", locate + "&deadline_ms=0", "", http.StatusBadRequest, 0},
		{"batch default", batch, query + `}`, http.StatusOK, 5 * time.Second},
		{"batch body 2.5s", batch, query + `,"deadline_ms":2500}`, http.StatusOK, 2500 * time.Millisecond},
		{"batch body overflowing", batch, query + `,"deadline_ms":9300000000000}`, http.StatusOK, 30 * time.Second},
		{"batch body negative", batch, query + `,"deadline_ms":-5}`, http.StatusBadRequest, 0},
		{"batch query wins", batch + "?deadline_ms=1000", query + `,"deadline_ms":20000}`, http.StatusOK, time.Second},
		{"batch query overflowing", batch + "?deadline_ms=9300000000000", query + `}`, http.StatusOK, 30 * time.Second},
		{"batch negative body under query", batch + "?deadline_ms=1000", query + `,"deadline_ms":-5}`, http.StatusBadRequest, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := &deadlineRecorder{}
			s := New(eng)
			method := http.MethodGet
			if tc.body != "" {
				method = http.MethodPost
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.status != http.StatusOK {
				if code := errCode(t, rec); code != codeBadRequest {
					t.Fatalf("code %q, want %q", code, codeBadRequest)
				}
				return
			}
			if eng.left > tc.want || eng.left < tc.want-time.Second {
				t.Fatalf("engine saw %v left on the context, want about %v", eng.left, tc.want)
			}
		})
	}
}

func mustStats(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestWriteJSONUnencodableValue: an unmarshalable value must yield one clean
// JSON error response — not a partial body with plain-text error appended.
func TestWriteJSONUnencodableValue(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var errResp map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &errResp); err != nil {
		t.Fatalf("body is not a single valid JSON document: %v (%s)", err, rec.Body)
	}
	if errResp["message"] == "" {
		t.Error("message field empty")
	}
}

// TestWriteJSONBrokenWriter: a failing writer (client gone mid-response)
// must not trigger a second write/WriteHeader attempt.
type brokenWriter struct {
	header http.Header
	wrote  int
	codes  []int
}

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}
func (b *brokenWriter) WriteHeader(code int) { b.codes = append(b.codes, code) }
func (b *brokenWriter) Write(p []byte) (int, error) {
	b.wrote++
	return 0, fmt.Errorf("connection reset")
}

func TestWriteJSONBrokenWriter(t *testing.T) {
	w := &brokenWriter{}
	writeJSON(w, map[string]int{"ok": 1})
	if w.wrote != 1 {
		t.Errorf("writes = %d, want exactly 1 (no error-path second write)", w.wrote)
	}
	if len(w.codes) != 0 {
		t.Errorf("WriteHeader calls = %v, want none (status already implied 200)", w.codes)
	}
}

// TestStatsCacheTiers: /stats must report the per-tier cache figures, and a
// repeated query must show up as a result-cache hit.
func TestStatsCacheTiers(t *testing.T) {
	s, ds := newTestServer(t)
	url := fmt.Sprintf("/v1/locate?device=%s&time=%s",
		ds.People[0].Device, simStart.AddDate(0, 0, 5).Add(11*time.Hour).Format(time.RFC3339))
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, url, nil))
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, url, nil))

	resp := mustStats(t, s)
	if !resp.Caches.Enabled {
		t.Fatal("caches.enabled = false on an EnableCache server")
	}
	c := resp.Caches
	if c.Results.Hits == 0 {
		t.Errorf("repeated query produced no result-cache hit: %+v", c.Results)
	}
	if c.CoarseModels.Capacity == 0 || c.Affinity.Capacity == 0 || c.Results.Capacity == 0 {
		t.Errorf("cache tiers report no capacity: %+v", c)
	}
	if c.Results.Size > c.Results.Capacity || c.Affinity.Size > c.Affinity.Capacity ||
		c.CoarseModels.Size > c.CoarseModels.Capacity {
		t.Errorf("a cache tier exceeds its capacity: %+v", c)
	}
	// No WAL on this server: persist block absent.
	if resp.Persist != nil {
		t.Errorf("persist block present on a memory-only server: %+v", resp.Persist)
	}
	// The occupancy index serves neighbor discovery.
	if c.Occupancy.Bucket <= 0 {
		t.Errorf("occupancy block missing: %+v", c.Occupancy)
	}
	if c.Occupancy.Entries == 0 || c.Occupancy.Buckets == 0 {
		t.Errorf("occupancy index empty on an ingested server: %+v", c.Occupancy)
	}
	if c.Occupancy.Lookups == 0 {
		t.Errorf("served queries produced no occupancy lookups: %+v", c.Occupancy)
	}
	// An in-memory server has no cold tier.
	if c.Segments.MaxEvents <= 0 {
		t.Errorf("segments block missing: %+v", c.Segments)
	}
	if c.Segments.ColdTier {
		t.Errorf("memory-only server reports a cold tier: %+v", c.Segments)
	}
	if c.Segments.SealFailures != 0 || c.Segments.DecodeFailures != 0 {
		t.Errorf("segment failures on a healthy server: %+v", c.Segments)
	}
	if c.Segments.SegmentEvents+c.Segments.HeadEvents != resp.Events {
		t.Errorf("segment shape (%d sealed + %d head) does not account for %d events",
			c.Segments.SegmentEvents, c.Segments.HeadEvents, resp.Events)
	}
}

// TestStatsQueryStats: after a cold query and a repeat (cached) query, the
// query_stats block must report both populations with sane quantiles.
func TestStatsQueryStats(t *testing.T) {
	s, ds := newTestServer(t)
	dev := ds.People[0].Device
	tq := simStart.AddDate(0, 0, 5).Add(11 * time.Hour)
	url := fmt.Sprintf("/v1/locate?device=%s&time=%s", dev, tq.Format(time.RFC3339))
	for i := 0; i < 3; i++ { // 1 cold + 2 result-cache hits
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("locate %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	qs := resp.QueryStats
	if qs.Cold.Count != 1 {
		t.Errorf("cold count = %d, want 1", qs.Cold.Count)
	}
	if qs.Cached.Count != 2 {
		t.Errorf("cached count = %d, want 2", qs.Cached.Count)
	}
	if qs.Cold.P99Micros < qs.Cold.P50Micros {
		t.Errorf("cold p99 %v < p50 %v", qs.Cold.P99Micros, qs.Cold.P50Micros)
	}
	if qs.Cold.MaxMicros <= 0 || qs.Cold.MeanMicros <= 0 {
		t.Errorf("cold mean/max not positive: %+v", qs.Cold)
	}
	if qs.NeighborsProcessedP99 < qs.NeighborsProcessedP50 {
		t.Errorf("neighbors p99 %d < p50 %d", qs.NeighborsProcessedP99, qs.NeighborsProcessedP50)
	}
}

// TestPprofGated: /debug/pprof/ must 404 by default and serve the profiler
// index once EnablePprof is called.
func TestPprofGated(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without flag = %d, want 404", rec.Code)
	}
	s.EnablePprof()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof after enable = %d, want 200", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("profile")) {
		t.Error("pprof index body missing profile links")
	}
}

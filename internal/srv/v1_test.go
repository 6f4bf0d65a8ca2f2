package srv

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
)

// TestV1Routes: every endpoint answers 200 under /v1 and its unversioned
// twin is not a route — it answers 404 with the not_found envelope.
func TestV1Routes(t *testing.T) {
	s, ds := newTestServer(t)
	dev := string(ds.People[0].Device)
	tq := simStart.AddDate(0, 0, 5).Add(11 * time.Hour).Format(time.RFC3339)
	batchBody := `{"queries":[{"device":"` + dev + `","time":"` + tq + `"}]}`

	cases := []struct {
		method, path string
		body         string
	}{
		{http.MethodGet, "/locate?device=" + dev + "&time=" + tq, ""},
		{http.MethodPost, "/locate/batch", batchBody},
		{http.MethodPost, "/ingest", `[]`},
		{http.MethodGet, "/stats", ""},
		{http.MethodGet, "/quarantine", ""},
		{http.MethodGet, "/healthz", ""},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, "/v1"+c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s /v1%s = %d: %s", c.method, c.path, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404: %s", c.method, c.path, rec.Code, rec.Body)
		} else if code := errCode(t, rec); code != codeNotFound {
			t.Errorf("%s %s: code %q, want %q", c.method, c.path, code, codeNotFound)
		}
	}
}

// TestErrorEnvelope checks the uniform error body on every failure class
// reachable without overload: 400, 404, and 405 across all five endpoints.
func TestErrorEnvelope(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		code         string
	}{
		{"locate missing device", http.MethodGet, "/v1/locate", "", http.StatusBadRequest, "bad_request"},
		{"locate bad time", http.MethodGet, "/v1/locate?device=d&time=nope", "", http.StatusBadRequest, "bad_request"},
		{"locate wrong method", http.MethodPost, "/v1/locate", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"batch bad body", http.MethodPost, "/v1/locate/batch", "{", http.StatusBadRequest, "bad_request"},
		{"batch wrong method", http.MethodGet, "/v1/locate/batch", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"ingest bad body", http.MethodPost, "/v1/ingest", "nope", http.StatusBadRequest, "bad_request"},
		{"ingest wrong method", http.MethodGet, "/v1/ingest", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"stats wrong method", http.MethodPost, "/v1/stats", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"healthz wrong method", http.MethodPost, "/v1/healthz", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"unknown path", http.MethodGet, "/v1/nope", "", http.StatusNotFound, "not_found"},
		{"unknown unversioned path", http.MethodGet, "/nope", "", http.StatusNotFound, "not_found"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, bytes.NewReader([]byte(c.body))))
		if rec.Code != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, rec.Code, c.status)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Errorf("%s: body is not an envelope: %v (%s)", c.name, err, rec.Body)
			continue
		}
		if env.Code != c.code {
			t.Errorf("%s: code = %q, want %q", c.name, env.Code, c.code)
		}
		if env.Message == "" {
			t.Errorf("%s: empty message", c.name)
		}
	}
}

// TestQuarantineEndpoint drives the cleansing stage through the HTTP
// surface: dirty ingest lands rejects in the quarantine, GET /v1/quarantine
// returns them newest-first with per-rule stats, and the limit parameter
// is validated.
func TestQuarantineEndpoint(t *testing.T) {
	sc, err := sim.Office(1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := locater.New(locater.Config{
		Building:           ds.Building,
		EnableCache:        true,
		EnableCleansing:    true,
		HistoryDays:        3,
		PromotionsPerRound: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sys)
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	// A fresh event followed by its exact duplicate: one reject.
	e := locater.Event{
		Device: ds.People[0].Device,
		Time:   simStart.Add(100 * time.Hour),
		AP:     ds.Events[0].AP,
	}
	if err := sys.Ingest([]locater.Event{e, e}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("quarantine: %d (%s)", rec.Code, rec.Body)
	}
	var resp QuarantineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled {
		t.Error("cleansing-enabled engine reports enabled=false")
	}
	if len(resp.Entries) != 1 {
		t.Fatalf("quarantine has %d entries, want 1: %+v", len(resp.Entries), resp.Entries)
	}
	ent := resp.Entries[0]
	if ent.Device != string(e.Device) || ent.Rule != "duplicate" || ent.Reason == "" {
		t.Errorf("entry = %+v, want the duplicate of %s", ent, e.Device)
	}
	if resp.Stats.Quarantined != 1 || resp.Stats.Duplicates != 1 {
		t.Errorf("stats = %+v, want 1 duplicate quarantined", resp.Stats)
	}

	// The same counters appear in the /v1/stats caches block.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Caches.Cleanse.Quarantined != 1 {
		t.Errorf("stats cleanse block = %+v, want quarantined 1", st.Caches.Cleanse)
	}

	// Bad limit is a 400.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine?limit=zero", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit: %d, want 400", rec.Code)
	}

	// With cleansing off, the endpoint still serves — empty and disabled.
	off, _ := newTestServer(t)
	rec = httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("quarantine (cleansing off): %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || len(resp.Entries) != 0 {
		t.Errorf("cleansing-off quarantine = %+v, want disabled and empty", resp)
	}
}

package srv

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzBody posts arbitrary bytes to one endpoint of a live engine and holds
// the edge to its contract for hostile input: no panic, no 5xx (a malformed
// body is the client's fault), and every refusal is the uniform envelope
// with a code a client can switch on.
func fuzzBody(f *testing.F, path string, seeds ...string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s, _ := newTinyServer(f, Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q = %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code >= 200 && rec.Code < 300 {
			return
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" {
			t.Fatalf("POST %s %q = %d with a body that is not an envelope: %s", path, body, rec.Code, rec.Body)
		}
	})
}

// The seeds are the bodies of TestIngestEndpoint and
// TestLocateBatchEndpointValidation plus one accepted request each.

func FuzzIngestBody(f *testing.F) {
	fuzzBody(f, "/v1/ingest",
		`not json`,
		`[]`,
		`[{"device":"d","time":"nope","ap":"a"}]`,
		`[{"device":"","time":"2026-01-11 09:00:00","ap":"a"}]`,
		`[{"device":"d","time":"","ap":"a"}]`,
		`[{"device":"d","time":"0001-01-01T00:00:00Z","ap":"a"}]`,
		`[{"device":"d","time":"2026-01-11T09:00:00.5Z","ap":"a"}]`,
	)
}

func FuzzBatchBody(f *testing.F) {
	fuzzBody(f, "/v1/locate/batch",
		`not json`,
		`{"queries":[]}`,
		`{"queries":[{"device":"","time":""}]}`,
		`{"queries":[{"device":"d","time":"garbage"}]}`,
		`{"queries":[{"device":"d","time":"2026-01-07T11:00:00Z"}],"workers":-1,"deadline_ms":-5}`,
		`{"queries":[{"device":"d","time":""},{"device":"e","time":"2026-01-07 11:00:00"}],"workers":99}`,
		`{"queries":[{"device":"d","time":"2026-01-07T11:00:00Z"}],"deadline_ms":9300000000000}`,
		`{"queries":[{"device":"d","time":"2026-01-07T11:00:00Z"}],"deadline_ms":-1}`,
	)
}

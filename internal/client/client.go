// Package client is the Go client for locater-serve's /v1 HTTP API. It
// implements the locater.Locater service interface, so a remote deployment
// is interchangeable with an in-process *locater.System (cmd/locater-query's
// -target mode drives it).
//
// Fidelity caveats of the wire format, documented per method: localization
// answers come back without the diagnostic counters (CoarseConfidence,
// ProcessedNeighbors, TotalNeighbors — the JSON surface omits them), the
// whole-deployment counters are fetched via /v1/stats on demand, and
// administrative operations the API does not expose (Checkpoint,
// EstimateDeltas) fail with errors.ErrUnsupported rather than silently
// succeeding.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"locater"
	"locater/internal/srv"
)

// Client speaks the /v1 API at one base URL. Safe for concurrent use (the
// underlying http.Client is).
type Client struct {
	base string
	hc   *http.Client
}

// Compile-time check: a remote deployment is a full Locater.
var _ locater.Locater = (*Client)(nil)

// Option customizes the client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the locater-serve at base (e.g.
// "http://host:8080"). The default transport has no timeout; callers that
// need a backstop pass WithHTTPClient.
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the server's uniform error
// envelope. Status is the HTTP code; Code is the machine-readable envelope
// code (bad_request, queue_full, deadline_exceeded, ...); RetryAfter is the
// server's retry hint, zero when none was given.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("locater: server rejected request: %s (http %d, code %s)", e.Message, e.Status, e.Code)
	}
	return fmt.Sprintf("locater: server rejected request: http %d", e.Status)
}

// doJSON executes one request and decodes a 2xx body into out (out == nil
// drains it); non-2xx responses come back as *APIError decoded from the
// envelope.
func (c *Client) doJSON(method, path string, body []byte, out any) error {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return apiErrorOf(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func apiErrorOf(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env srv.ErrorEnvelope
	if json.Unmarshal(b, &env) == nil {
		apiErr.Code = env.Code
		apiErr.Message = env.Message
		apiErr.RetryAfter = time.Duration(env.RetryAfterMillis) * time.Millisecond
	}
	return apiErr
}

// deadlineParam renders a context deadline as the API's deadline_ms
// parameter ("" when the context has none).
func deadlineParam(ctx context.Context) string {
	dl, ok := ctx.Deadline()
	if !ok {
		return ""
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return fmt.Sprintf("deadline_ms=%d", ms)
}

func resultOf(lr srv.LocateResponse) locater.Result {
	return locater.Result{
		Outside:         lr.Outside,
		Region:          locater.RegionID(lr.Region),
		Room:            locater.RoomID(lr.Room),
		RoomProbability: lr.RoomProb,
		Repaired:        lr.Repaired,
	}
}

// Locate answers Q = (device, t) via GET /v1/locate. The wire format omits
// the diagnostic counters, so CoarseConfidence/ProcessedNeighbors/
// TotalNeighbors are zero in the returned Result.
func (c *Client) Locate(d locater.DeviceID, t time.Time) (locater.Result, error) {
	return c.LocateContext(context.Background(), d, t)
}

// LocateContext is Locate with the context deadline forwarded as
// deadline_ms; a server-side expiry surfaces as locater.ErrDeadlineExceeded.
func (c *Client) LocateContext(ctx context.Context, d locater.DeviceID, t time.Time) (locater.Result, error) {
	path := fmt.Sprintf("/v1/locate?device=%s&time=%s",
		url.QueryEscape(string(d)), url.QueryEscape(t.UTC().Format(time.RFC3339Nano)))
	if dl := deadlineParam(ctx); dl != "" {
		path += "&" + dl
	}
	var lr srv.LocateResponse
	if err := c.doJSON(http.MethodGet, path, nil, &lr); err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusGatewayTimeout {
			return locater.Result{}, locater.ErrDeadlineExceeded
		}
		return locater.Result{}, err
	}
	return resultOf(lr), nil
}

// LocateBatch answers many queries via POST /v1/locate/batch, results in
// input order with per-query errors. workers is forwarded as the advisory
// server-side pool bound.
func (c *Client) LocateBatch(queries []locater.Query, workers int) []locater.BatchResult {
	return c.LocateBatchContext(context.Background(), queries, workers)
}

// LocateBatchContext is LocateBatch with the context deadline forwarded as
// the whole-batch deadline_ms. A request-level failure (transport, 4xx/5xx)
// is fanned to every slot, mirroring the in-process contract that one
// result always comes back per query.
func (c *Client) LocateBatchContext(ctx context.Context, queries []locater.Query, workers int) []locater.BatchResult {
	out := make([]locater.BatchResult, len(queries))
	for i, q := range queries {
		out[i].Query = q
	}
	if len(queries) == 0 {
		return out
	}
	req := srv.BatchLocateRequest{Queries: make([]srv.BatchQuery, len(queries)), Workers: workers}
	for i, q := range queries {
		req.Queries[i] = srv.BatchQuery{
			Device: string(q.Device),
			Time:   q.Time.UTC().Format(time.RFC3339Nano),
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.DeadlineMillis = int(ms)
	}
	body, err := json.Marshal(req)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	var resp srv.BatchLocateResponse
	if err := c.doJSON(http.MethodPost, "/v1/locate/batch", body, &resp); err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusGatewayTimeout {
			err = locater.ErrDeadlineExceeded
		}
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if len(resp.Results) != len(queries) {
		err := fmt.Errorf("locater: batch answered %d of %d queries", len(resp.Results), len(queries))
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			if strings.Contains(r.Error, "deadline exceeded") {
				out[i].Err = locater.ErrDeadlineExceeded
			} else {
				out[i].Err = errors.New(r.Error)
			}
			continue
		}
		out[i].Result = resultOf(r.LocateResponse)
	}
	return out
}

// Ingest streams a batch of connectivity events via POST /v1/ingest.
func (c *Client) Ingest(events []locater.Event) error {
	rows := make([]srv.IngestEvent, len(events))
	for i, e := range events {
		rows[i] = srv.IngestEvent{
			Device: string(e.Device),
			Time:   e.Time.UTC().Format(time.RFC3339Nano),
			AP:     string(e.AP),
		}
	}
	body, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return c.doJSON(http.MethodPost, "/v1/ingest", body, nil)
}

// EstimateDeltas is not exposed over the wire; it returns
// errors.ErrUnsupported (the server estimates deltas at startup).
func (c *Client) EstimateDeltas(quantile float64, min, max time.Duration) error {
	return fmt.Errorf("locater: remote EstimateDeltas: %w", errors.ErrUnsupported)
}

// Building returns nil: the wire format reports the building's name (see
// Stats), not its full metadata model.
func (c *Client) Building() *locater.Building { return nil }

// Stats fetches GET /v1/stats — the full-fidelity deployment picture,
// including the admission block the typed accessors below do not
// surface.
func (c *Client) Stats() (*srv.StatsResponse, error) {
	var st srv.StatsResponse
	if err := c.doJSON(http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// stats is Stats with a failure flattened to the zero value, for the
// Locater accessors below, whose signatures carry no error slot — callers
// needing failure visibility use Stats.
func (c *Client) stats() srv.StatsResponse {
	st, err := c.Stats()
	if err != nil {
		return srv.StatsResponse{}
	}
	return *st
}

// NumEvents fetches the deployment's event count via /v1/stats (0 when the
// server is unreachable).
func (c *Client) NumEvents() int { return c.stats().Events }

// NumDevices fetches the deployment's device count via /v1/stats.
func (c *Client) NumDevices() int { return c.stats().Devices }

// NumQueries fetches the deployment's served-query count via /v1/stats.
func (c *Client) NumQueries() int { return c.stats().Queries }

// CacheStats fetches the caches block of /v1/stats, which is the engine's
// own structure.
func (c *Client) CacheStats() locater.CacheStats { return c.stats().Caches }

// QueryStats fetches the query_stats block of /v1/stats, which is the
// engine's own structure.
func (c *Client) QueryStats() locater.QueryStats { return c.stats().QueryStats }

// PersistStats fetches /v1/stats; ok is false when the deployment is
// in-memory or the server is unreachable.
func (c *Client) PersistStats() (segments int, lastLSN, durableLSN uint64, ok bool) {
	p := c.stats().Persist
	if p == nil {
		return 0, 0, 0, false
	}
	return p.Segments, p.LastLSN, p.DurableLSN, true
}

// Checkpoint is not exposed over the wire; it returns errors.ErrUnsupported
// (the server checkpoints on its own snapshot schedule and on shutdown).
func (c *Client) Checkpoint() error {
	return fmt.Errorf("locater: remote Checkpoint: %w", errors.ErrUnsupported)
}

// Close releases idle connections. The remote engine itself stays up.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

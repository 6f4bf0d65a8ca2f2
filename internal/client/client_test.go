package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
	"locater/internal/srv"
)

var simStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// newSystem builds an uncached engine over a small simulated week: with the
// result cache off, a query is answered for its exact time, not its minute.
func newSystem(t *testing.T, cfg locater.Config) (*locater.System, *sim.Dataset) {
	t.Helper()
	sc, err := sim.DBH(2)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, 7, 99))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Building = ds.Building
	cfg.HistoryDays = 7
	cfg.PromotionsPerRound = 8
	sys, err := locater.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	return sys, ds
}

func serve(t *testing.T, h http.Handler) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// wire keeps the fields of an answer that the JSON surface carries.
func wire(r locater.Result) locater.Result {
	return locater.Result{
		Outside:         r.Outside,
		Region:          r.Region,
		Room:            r.Room,
		RoomProbability: r.RoomProbability,
		Repaired:        r.Repaired,
	}
}

// firstEvents returns, per device, a query at the first of its events in
// the feed, at that event's own sub-second timestamp: a client that drops
// the fraction asks about a moment before the event.
func firstEvents(t *testing.T, ds *sim.Dataset) []locater.Query {
	t.Helper()
	seen := make(map[locater.DeviceID]bool)
	var qs []locater.Query
	for _, e := range ds.Events {
		if !seen[e.Device] && e.Time.Nanosecond() != 0 {
			qs = append(qs, locater.Query{Device: e.Device, Time: e.Time})
		}
		seen[e.Device] = true
	}
	if len(qs) == 0 {
		t.Fatal("dataset has no sub-second first event")
	}
	return qs
}

func TestLocateSubSecondMatchesInProcess(t *testing.T) {
	sys, ds := newSystem(t, locater.Config{})
	c := serve(t, srv.New(sys))
	inside := 0
	for _, q := range firstEvents(t, ds) {
		want, err := sys.Locate(q.Device, q.Time)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Locate(q.Device, q.Time)
		if err != nil {
			t.Fatal(err)
		}
		if got != wire(want) {
			t.Errorf("(%s, %v): remote %+v, in-process %+v", q.Device, q.Time, got, wire(want))
		}
		if !want.Outside {
			inside++
		}
	}
	if inside == 0 {
		t.Fatal("every query read outside; the comparison checks nothing")
	}
}

func TestLocateBatchSubSecondMatchesInProcess(t *testing.T) {
	sys, ds := newSystem(t, locater.Config{})
	c := serve(t, srv.New(sys))
	qs := firstEvents(t, ds)
	want := sys.LocateBatch(qs, 1)
	got := c.LocateBatch(qs, 1)
	if len(got) != len(qs) {
		t.Fatalf("%d results for %d queries", len(got), len(qs))
	}
	for i := range qs {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("query %d: in-process err %v, remote err %v", i, want[i].Err, got[i].Err)
		}
		if got[i].Query != qs[i] {
			t.Errorf("query %d: slot carries %+v", i, got[i].Query)
		}
		if got[i].Result != wire(want[i].Result) {
			t.Errorf("query %d: remote %+v, in-process %+v", i, got[i].Result, wire(want[i].Result))
		}
	}
}

func TestErrorEnvelopeDecodes(t *testing.T) {
	sys, _ := newSystem(t, locater.Config{})
	c := serve(t, srv.New(sys))
	_, err := c.Locate("", simStart)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" ||
		apiErr.Message != "missing device parameter" || apiErr.RetryAfter != 0 {
		t.Errorf("decoded %+v", apiErr)
	}
}

// held is an engine whose single queries park until released, so a test can
// keep the server's only locate slot busy.
type held struct {
	locater.Locater
	entered, release chan struct{}
}

func (h *held) LocateContext(ctx context.Context, d locater.DeviceID, t time.Time) (locater.Result, error) {
	h.entered <- struct{}{}
	<-h.release
	return h.Locater.LocateContext(ctx, d, t)
}

func TestRejectionCarriesRetryAfter(t *testing.T) {
	sys, ds := newSystem(t, locater.Config{})
	h := &held{Locater: sys, entered: make(chan struct{}), release: make(chan struct{})}
	c := serve(t, srv.NewWithOptions(h, srv.Options{Admission: srv.AdmissionOptions{
		Locate: srv.QueueConfig{MaxConcurrent: 1, MaxQueue: 1},
	}}))
	dev := ds.People[0].Device
	first := make(chan error, 1) // one send, never blocks the goroutine
	go func() {
		_, err := c.Locate(dev, simStart)
		first <- err
	}()
	<-h.entered // the only slot is now taken

	// Whether the short deadline expires before admission or in the queue,
	// the server answers 429 with a retry hint of at least a second.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.LocateContext(ctx, dev, simStart)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code == "" || apiErr.RetryAfter < time.Second {
		t.Errorf("decoded %+v", apiErr)
	}

	close(h.release)
	if err := <-first; err != nil {
		t.Fatalf("held query: %v", err)
	}
}

// expired is an engine on which every query runs out of time.
type expired struct{ locater.Locater }

func (expired) LocateContext(context.Context, locater.DeviceID, time.Time) (locater.Result, error) {
	return locater.Result{}, locater.ErrDeadlineExceeded
}

func (expired) LocateBatchContext(_ context.Context, qs []locater.Query, _ int) []locater.BatchResult {
	out := make([]locater.BatchResult, len(qs))
	for i, q := range qs {
		out[i] = locater.BatchResult{Query: q, Err: locater.ErrDeadlineExceeded}
	}
	return out
}

func TestGatewayTimeoutIsDeadlineExceeded(t *testing.T) {
	sys, ds := newSystem(t, locater.Config{})
	c := serve(t, srv.New(expired{sys}))
	dev := ds.People[0].Device
	if _, err := c.Locate(dev, simStart); !errors.Is(err, locater.ErrDeadlineExceeded) {
		t.Errorf("Locate err = %v, want ErrDeadlineExceeded", err)
	}
	// A batch whose every query expired is one whole-request 504.
	for i, r := range c.LocateBatch([]locater.Query{{Device: dev, Time: simStart}, {Device: dev, Time: simStart.Add(time.Hour)}}, 1) {
		if !errors.Is(r.Err, locater.ErrDeadlineExceeded) {
			t.Errorf("batch slot %d err = %v, want ErrDeadlineExceeded", i, r.Err)
		}
	}
}

func TestBatchRequestFailureFansOut(t *testing.T) {
	sys, ds := newSystem(t, locater.Config{})
	c := serve(t, srv.New(sys))
	qs := []locater.Query{
		{Device: ds.People[0].Device, Time: simStart},
		{Device: "", Time: simStart}, // rejects the whole request
		{Device: ds.People[1].Device, Time: simStart},
	}
	got := c.LocateBatch(qs, 1)
	if len(got) != len(qs) {
		t.Fatalf("%d results for %d queries", len(got), len(qs))
	}
	for i, r := range got {
		var apiErr *APIError
		if !errors.As(r.Err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("slot %d err = %v, want the request's 400", i, r.Err)
		}
		if r.Query != qs[i] {
			t.Errorf("slot %d carries %+v", i, r.Query)
		}
	}
}

package client

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"locater"
	"locater/internal/srv"
)

// unreachable returns a client of a server that has already shut down.
func unreachable(t *testing.T) *Client {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return New(ts.URL)
}

func TestIngestReachesTheEngine(t *testing.T) {
	sys, ds := newSystem(t, locater.Config{})
	c := serve(t, srv.New(sys))
	before, devices := sys.NumEvents(), sys.NumDevices()
	e := locater.Event{Device: "d-new", Time: simStart.Add(30 * time.Hour), AP: ds.Events[0].AP}
	if err := c.Ingest([]locater.Event{e}); err != nil {
		t.Fatal(err)
	}
	if got := sys.NumEvents(); got != before+1 {
		t.Fatalf("engine holds %d events after one ingest, want %d", got, before+1)
	}
	if got := sys.NumDevices(); got != devices+1 {
		t.Fatalf("engine holds %d devices after ingesting a new one, want %d", got, devices+1)
	}

	// A refused batch comes back as the 400 envelope and changes nothing.
	err := c.Ingest([]locater.Event{{Device: "d-new", Time: simStart, AP: ""}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" || apiErr.Message == "" {
		t.Fatalf("err = %v, want the 400 envelope", err)
	}
	if got := sys.NumEvents(); got != before+1 {
		t.Fatalf("a refused batch moved the event count to %d", got)
	}
}

func TestCountersMatchTheEngine(t *testing.T) {
	sys, ds := newSystem(t, locater.Config{})
	c := serve(t, srv.New(sys))
	if _, err := c.Locate(ds.People[0].Device, simStart.Add(33*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got, want := c.NumEvents(), sys.NumEvents(); got != want || got == 0 {
		t.Errorf("NumEvents = %d, engine %d", got, want)
	}
	if got, want := c.NumDevices(), sys.NumDevices(); got != want || got == 0 {
		t.Errorf("NumDevices = %d, engine %d", got, want)
	}
	if got, want := c.NumQueries(), sys.NumQueries(); got != want || got == 0 {
		t.Errorf("NumQueries = %d, engine %d", got, want)
	}
	// An in-memory engine has no persistence block.
	if _, _, _, ok := c.PersistStats(); ok {
		t.Error("PersistStats ok for an in-memory engine")
	}
}

func TestPersistStatsOfADurableEngine(t *testing.T) {
	_, ds := newSystem(t, locater.Config{})
	sys, err := locater.Open(t.TempDir(), locater.Config{Building: ds.Building}, locater.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c := serve(t, srv.New(sys))
	if err := c.Ingest(ds.Events[:100]); err != nil {
		t.Fatal(err)
	}
	segs, last, durable, ok := c.PersistStats()
	wsegs, wlast, wdurable, wok := sys.PersistStats()
	if !ok || !wok || segs != wsegs || last != wlast || durable != wdurable || last == 0 {
		t.Fatalf("PersistStats = %d %d %d %v, engine %d %d %d %v", segs, last, durable, ok, wsegs, wlast, wdurable, wok)
	}
}

func TestUnreachableServerReadsZero(t *testing.T) {
	c := unreachable(t)
	if n := c.NumEvents(); n != 0 {
		t.Errorf("NumEvents = %d", n)
	}
	if n := c.NumDevices(); n != 0 {
		t.Errorf("NumDevices = %d", n)
	}
	if n := c.NumQueries(); n != 0 {
		t.Errorf("NumQueries = %d", n)
	}
	if segs, last, durable, ok := c.PersistStats(); ok || segs != 0 || last != 0 || durable != 0 {
		t.Errorf("PersistStats = %d %d %d %v", segs, last, durable, ok)
	}
	if err := c.Ingest([]locater.Event{{Device: "d", Time: simStart, AP: "ap"}}); err == nil {
		t.Error("Ingest to a shut-down server succeeded")
	}
}

func TestUnsupportedOverTheWire(t *testing.T) {
	c := unreachable(t)
	if err := c.EstimateDeltas(0.9, time.Minute, time.Hour); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("EstimateDeltas err = %v, want ErrUnsupported", err)
	}
	if err := c.Checkpoint(); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("Checkpoint err = %v, want ErrUnsupported", err)
	}
}

func TestCloseKeepsTheClientUsable(t *testing.T) {
	sys, _ := newSystem(t, locater.Config{})
	c := serve(t, srv.New(sys))
	if n := c.NumEvents(); n == 0 {
		t.Fatal("no events before Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drops idle connections only; the next call dials afresh.
	if got, want := c.NumEvents(), sys.NumEvents(); got != want {
		t.Errorf("NumEvents after Close = %d, engine %d", got, want)
	}
}

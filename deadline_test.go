package locater_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"locater"
)

// TestLocateContextDeadline: an expired context yields ErrDeadlineExceeded
// (the distinct sentinel, not a generic error), the deadline counter in
// QueryStats moves, and the same query with room to run still succeeds.
func TestLocateContextDeadline(t *testing.T) {
	ds := buildDataset(t, 3)
	sys := newSystem(t, ds, locater.Config{EnableCache: true})
	dev := ds.People[0].Device
	tq := simStart.AddDate(0, 0, 2).Add(11 * time.Hour)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sys.LocateContext(expired, dev, tq); !errors.Is(err, locater.ErrDeadlineExceeded) {
		t.Fatalf("expired context: err = %v, want ErrDeadlineExceeded", err)
	}
	if got := sys.QueryStats().DeadlineExceeded; got != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", got)
	}

	// A cancelled (not deadline-expired) context is NOT a deadline error.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sys.LocateContext(cancelled, dev, tq); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	if got := sys.QueryStats().DeadlineExceeded; got != 1 {
		t.Errorf("DeadlineExceeded after cancel = %d, want still 1", got)
	}

	// With room to run, the same query succeeds and Locate (background
	// context) matches LocateContext.
	ctx, cancel3 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel3()
	got, err := sys.LocateContext(ctx, dev, tq)
	if err != nil {
		t.Fatalf("live context: %v", err)
	}
	want, err := sys.Locate(dev, tq)
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if got.Region != want.Region {
		t.Errorf("LocateContext region %v != Locate region %v", got.Region, want.Region)
	}
}

// TestLocateBatchContextDeadline: a batch whose deadline expires mid-run
// reports ErrDeadlineExceeded per remaining query instead of hanging.
func TestLocateBatchContextDeadline(t *testing.T) {
	ds := buildDataset(t, 3)
	sys := newSystem(t, ds, locater.Config{})

	queries := make([]locater.Query, 0, 3*len(ds.People))
	for i := 0; i < 3; i++ {
		for _, p := range ds.People {
			queries = append(queries, locater.Query{
				Device: p.Device,
				Time:   simStart.AddDate(0, 0, 2).Add(time.Duration(9+i) * time.Hour),
			})
		}
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	results := sys.LocateBatchContext(expired, queries, 2)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if !errors.Is(r.Err, locater.ErrDeadlineExceeded) {
			t.Fatalf("result %d: err = %v, want ErrDeadlineExceeded", i, r.Err)
		}
	}

	// Unexpired context: the batch completes normally.
	ok := sys.LocateBatch(queries[:4], 2)
	for i, r := range ok {
		if r.Err != nil {
			t.Errorf("live batch result %d: %v", i, r.Err)
		}
	}
}

package locater_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"locater"
)

// TestCleansingGatesIngest drives the cleansing stage through the System
// write path: dirty events never reach the store, counters and the
// quarantine reconcile, and with cleansing off the same batch is stored
// verbatim (the byte-identity default).
func TestCleansingGatesIngest(t *testing.T) {
	ds := buildDataset(t, 3)
	on := newEmptySystem(t, ds, locater.Config{EnableCache: true, EnableCleansing: true})
	off := newEmptySystem(t, ds, locater.Config{EnableCache: true})
	if !on.CleansingEnabled() || off.CleansingEnabled() {
		t.Fatal("CleansingEnabled does not reflect configuration")
	}

	dev := ds.People[0].Device
	ap := ds.Events[0].AP
	batch := []locater.Event{
		{Device: dev, Time: simStart, AP: ap},
		{Device: dev, Time: simStart, AP: ap},                       // exact duplicate
		{Device: dev, Time: simStart.Add(5 * time.Second), AP: ap},  // re-association
		{Device: dev, Time: simStart.Add(20 * time.Minute), AP: ap}, // kept
	}
	if err := on.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if err := off.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if got := on.NumEvents(); got != 2 {
		t.Errorf("cleansing on: stored %d events, want 2", got)
	}
	if got := off.NumEvents(); got != len(batch) {
		t.Errorf("cleansing off: stored %d events, want %d verbatim", got, len(batch))
	}

	st := on.CleanseStats()
	if st.Ingested != 4 || st.Kept != 2 || st.Duplicates != 1 || st.Reassociations != 1 {
		t.Errorf("cleanse stats = %+v, want 4 ingested / 2 kept / 1 dup / 1 reassoc", st)
	}
	q := on.Quarantine(0)
	if len(q) != 2 {
		t.Fatalf("quarantine holds %d entries, want 2", len(q))
	}
	if off.CleanseStats() != (locater.CleanseStats{}) || len(off.Quarantine(0)) != 0 {
		t.Error("cleansing-off system has non-empty cleanse state")
	}

	// A fully-rejected batch is not an error — just nothing to store.
	if err := on.Ingest([]locater.Event{{Device: dev, Time: simStart.Add(20 * time.Minute), AP: ap}}); err != nil {
		t.Fatal(err)
	}
	if got := on.NumEvents(); got != 2 {
		t.Errorf("duplicate-only batch changed the store: %d events", got)
	}

	// IngestOne goes through the same stage.
	if err := on.IngestOne(locater.Event{Device: dev, Time: simStart.Add(40 * time.Minute), AP: ap}); err != nil {
		t.Fatal(err)
	}
	if err := on.IngestOne(locater.Event{Device: dev, Time: simStart.Add(40 * time.Minute), AP: ap}); err != nil {
		t.Fatal(err)
	}
	if got := on.NumEvents(); got != 3 {
		t.Errorf("IngestOne path: stored %d events, want 3", got)
	}
}

// TestIngestRefusesInvalidBatchWhole: a batch holding one event without a
// device, an AP or a timestamp is refused whole, with cleansing off and on.
// Ingest and IngestOne return ErrInvalidEvent, nothing is stored, no cache
// is invalidated, and the cleansing stage counts nothing, so the corrected
// retry stores every event instead of being dropped as a duplicate of the
// refused batch.
func TestIngestRefusesInvalidBatchWhole(t *testing.T) {
	ds := buildDataset(t, 3)
	dev, other := ds.People[0].Device, ds.People[1].Device
	ap := ds.Events[0].AP
	good := []locater.Event{
		{Device: dev, Time: simStart, AP: ap},
		{Device: other, Time: simStart.Add(time.Minute), AP: ap},
	}
	invalid := []locater.Event{
		{Device: dev, AP: ap}, // zero time
		{Time: simStart.Add(2 * time.Minute), AP: ap},
		{Device: other, Time: simStart.Add(3 * time.Minute)},
	}
	for _, cleansing := range []bool{false, true} {
		t.Run(fmt.Sprintf("cleansing=%v", cleansing), func(t *testing.T) {
			sys := newEmptySystem(t, ds, locater.Config{EnableCache: true, EnableCleansing: cleansing})
			caches := sys.CacheStats()
			for i, bad := range invalid {
				if err := sys.Ingest(append(good[:len(good):len(good)], bad)); !errors.Is(err, locater.ErrInvalidEvent) {
					t.Fatalf("Ingest with invalid event %d = %v, want ErrInvalidEvent", i, err)
				}
				if err := sys.IngestOne(bad); !errors.Is(err, locater.ErrInvalidEvent) {
					t.Fatalf("IngestOne(invalid event %d) = %v, want ErrInvalidEvent", i, err)
				}
			}
			if n := sys.NumEvents(); n != 0 {
				t.Fatalf("refused batches stored %d events", n)
			}
			if st := sys.CleanseStats(); st != (locater.CleanseStats{}) {
				t.Fatalf("refused batches reached the cleanser: %+v", st)
			}
			if got := sys.CacheStats(); got != caches {
				t.Errorf("refused batches invalidated caches:\n got %+v\nwant %+v", got, caches)
			}

			if err := sys.Ingest(good); err != nil {
				t.Fatal(err)
			}
			if err := sys.IngestOne(locater.Event{Device: dev, Time: simStart.Add(30 * time.Minute), AP: ap}); err != nil {
				t.Fatal(err)
			}
			if n := sys.NumEvents(); n != len(good)+1 {
				t.Errorf("corrected retry stored %d events, want %d", n, len(good)+1)
			}
			if cleansing {
				if st := sys.CleanseStats(); st.Ingested != 3 || st.Kept != 3 {
					t.Errorf("cleanse stats after the retry = %+v, want 3 ingested / 3 kept", st)
				}
			}
		})
	}
}

// TestCleansingSurvivesRecovery checks the cleanse-before-WAL invariant:
// the log holds only cleansed events, so recovery replays without
// re-cleansing, and the recovered cleanser re-seeds its per-device state
// from the store (a post-recovery duplicate is still caught).
func TestCleansingSurvivesRecovery(t *testing.T) {
	ds := buildDataset(t, 3)
	dir := t.TempDir()
	cfg := locater.Config{
		Building:           ds.Building,
		EnableCache:        true,
		EnableCleansing:    true,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
	popts := locater.PersistOptions{Fsync: true}
	live, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	dev := ds.People[0].Device
	ap := ds.Events[0].AP
	e := locater.Event{Device: dev, Time: simStart, AP: ap}
	if err := live.Ingest([]locater.Event{e, e}); err != nil {
		t.Fatal(err)
	}
	stored := live.NumEvents()
	if stored != 1 {
		t.Fatalf("stored %d events, want the duplicate dropped pre-WAL", stored)
	}

	// Crash (no Close), recover: the WAL replay must not need cleansing.
	rec, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.NumEvents(); got != stored {
		t.Fatalf("recovered %d events, want %d", got, stored)
	}
	// The recovered cleanser re-seeds from the store: replaying the same
	// event is caught as a duplicate even though the in-memory rule state
	// died with the crash.
	if err := rec.Ingest([]locater.Event{e}); err != nil {
		t.Fatal(err)
	}
	if got := rec.NumEvents(); got != stored {
		t.Errorf("post-recovery duplicate reached the store (%d events)", got)
	}
	if st := rec.CleanseStats(); st.Duplicates != 1 {
		t.Errorf("post-recovery cleanse stats = %+v, want the duplicate counted", st)
	}
}

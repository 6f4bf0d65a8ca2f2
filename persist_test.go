package locater_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
	"locater/internal/wal"
)

// openSystem builds a durable system over dir with the shared test workload
// configuration.
func openSystem(t testing.TB, ds *sim.Dataset, dir string, popts locater.PersistOptions) *locater.System {
	t.Helper()
	cfg := locater.Config{
		Building:           ds.Building,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
	sys, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestKilledMidIngestRecoversAcknowledgedEvents is the headline durability
// guarantee: a process killed mid-ingest (simulated by abandoning the system
// without Close or Checkpoint) recovers every acknowledged event in fsync
// mode and serves identical Locate answers.
func TestKilledMidIngestRecoversAcknowledgedEvents(t *testing.T) {
	ds := buildDataset(t, 6)
	dir := t.TempDir()

	live := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})
	// Stream the workload in batches, as a controller would; every returned
	// Ingest is an acknowledgement.
	const batch = 256
	for i := 0; i < len(ds.Events); i += batch {
		end := i + batch
		if end > len(ds.Events) {
			end = len(ds.Events)
		}
		if err := live.Ingest(ds.Events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	if p, ok := personWithBaseRoom(ds); ok {
		if err := live.AddRoomLabel(p.Device, p.BaseRoom, simStart.Add(10*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}

	queries := sampleQueries(ds, 40)
	liveResults := live.LocateBatch(queries, 4)

	// Crash: no Close, no Checkpoint — recovery must come from the WAL
	// tail alone.
	recovered := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})
	defer recovered.Close()

	if got, want := recovered.NumEvents(), live.NumEvents(); got != want {
		t.Fatalf("recovered %d events, want %d (zero acknowledged-event loss)", got, want)
	}
	if got, want := recovered.NumDevices(), live.NumDevices(); got != want {
		t.Fatalf("recovered %d devices, want %d", got, want)
	}
	recResults := recovered.LocateBatch(queries, 4)
	for i := range queries {
		if liveResults[i].Err != nil || recResults[i].Err != nil {
			t.Fatalf("query %d errored: live=%v recovered=%v", i, liveResults[i].Err, recResults[i].Err)
		}
		l, r := liveResults[i].Result, recResults[i].Result
		if l.Outside != r.Outside || l.Region != r.Region || l.Room != r.Room {
			t.Errorf("query %d (%s, %v): live=%+v recovered=%+v",
				i, queries[i].Device, queries[i].Time, l, r)
		}
	}
}

// TestSnapshotPlusTailEquivalence checkpoints mid-stream, keeps ingesting,
// crashes, and verifies the recovered store (snapshot + WAL tail) answers
// the store-level read paths identically to the live one.
func TestSnapshotPlusTailEquivalence(t *testing.T) {
	ds := buildDataset(t, 6)
	dir := t.TempDir()

	live := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})
	half := len(ds.Events) / 2
	if err := live.Ingest(ds.Events[:half]); err != nil {
		t.Fatal(err)
	}
	if err := live.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The tail lands after the snapshot.
	if err := live.Ingest(ds.Events[half:]); err != nil {
		t.Fatal(err)
	}
	if err := live.SetDelta(ds.People[1].Device, 7*time.Minute); err != nil {
		t.Fatal(err)
	}

	recovered := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})
	defer recovered.Close()

	if got, want := recovered.NumEvents(), live.NumEvents(); got != want {
		t.Fatalf("recovered %d events, want %d", got, want)
	}
	liveStore, recStore := live.StoreForTest(), recovered.StoreForTest()
	for _, p := range ds.People {
		d := p.Device
		if got, want := recStore.Delta(d), liveStore.Delta(d); got != want {
			t.Errorf("device %s: recovered δ %v, want %v", d, got, want)
		}
		levs, revs := liveStore.Events(d), recStore.Events(d)
		if len(levs) != len(revs) {
			t.Fatalf("device %s: %d vs %d events", d, len(levs), len(revs))
		}
		for i := range levs {
			le, re := levs[i], revs[i]
			if le.ID != re.ID || le.AP != re.AP || !le.Time.Equal(re.Time) {
				t.Fatalf("device %s event %d: %v vs %v", d, i, le, re)
			}
		}
		// At agrees on validity/gap classification across the day.
		for h := 0; h < 24; h += 3 {
			tq := simStart.Add(time.Duration(24+h) * time.Hour)
			lv, lg, lw, _ := liveStore.At(d, tq)
			rv, rg, rw, _ := recStore.At(d, tq)
			if lw != rw || lv != rv || lg != rg {
				t.Errorf("device %s at %v: live (%d, v=%v g=%v) vs recovered (%d, v=%v g=%v)",
					d, tq, lw, lv, lg, rw, rv, rg)
			}
		}
	}

	// EstimateDeltas over identical logs produces identical estimates.
	if err := live.EstimateDeltas(0.85, time.Minute, 20*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := recovered.EstimateDeltas(0.85, time.Minute, 20*time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.People {
		if got, want := recStore.Delta(p.Device), liveStore.Delta(p.Device); got != want {
			t.Errorf("device %s: re-estimated δ %v vs %v", p.Device, got, want)
		}
	}
}

// TestConcurrentIngestWhileCheckpoint hammers ingest, labels, and Locate
// while checkpoints run; meant for -race. Afterwards a recovery must see
// every acknowledged event exactly once.
func TestConcurrentIngestWhileCheckpoint(t *testing.T) {
	ds := buildDataset(t, 4)
	dir := t.TempDir()
	sys := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})

	seed := len(ds.Events) / 2
	if err := sys.Ingest(ds.Events[:seed]); err != nil {
		t.Fatal(err)
	}
	rest := ds.Events[seed:]

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	// Ingesters: stream the remaining events in small batches.
	const ingesters = 4
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(rest); i += ingesters {
				if err := sys.Ingest(rest[i : i+1]); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	// Checkpointer: snapshots race the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := sys.Checkpoint(); err != nil {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()
	// Readers: queries run against the moving store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		queries := sampleQueries(ds, 10)
		for i := 0; i < 5; i++ {
			sys.LocateBatch(queries, 2)
		}
	}()
	// Labels: the third durable record type joins the race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p, ok := personWithBaseRoom(ds)
		if !ok {
			return
		}
		for i := 0; i < 20; i++ {
			if err := sys.AddRoomLabel(p.Device, p.BaseRoom, simStart.Add(time.Duration(i)*time.Hour)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	want := sys.NumEvents()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})
	defer recovered.Close()
	if got := recovered.NumEvents(); got != want {
		t.Fatalf("recovered %d events, want %d", got, want)
	}
}

// TestCloseCheckpointsAndReopens verifies the graceful path: Close writes a
// final snapshot, and a reopen that replays only the snapshot (no tail)
// matches the pre-shutdown state.
func TestCloseCheckpointsAndReopens(t *testing.T) {
	ds := buildDataset(t, 4)
	dir := t.TempDir()
	sys := openSystem(t, ds, dir, locater.PersistOptions{})
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	want := sys.NumEvents()
	if _, _, _, ok := sys.PersistStats(); !ok {
		t.Error("PersistStats should report ok on a durable system")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openSystem(t, ds, dir, locater.PersistOptions{})
	defer recovered.Close()
	if got := recovered.NumEvents(); got != want {
		t.Fatalf("recovered %d events, want %d", got, want)
	}
}

// TestOpenRefusesRetiredSnapshot: a data directory whose snapshot is in the
// retired format v1 fails Open with wal.ErrRetiredFormat rather than
// recovering from the log alone as if the snapshot were corrupt.
func TestOpenRefusesRetiredSnapshot(t *testing.T) {
	ds := buildDataset(t, 2)
	dir := t.TempDir()
	sys := openSystem(t, ds, dir, locater.PersistOptions{})
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "LOCSNAP1")
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = locater.Open(dir, locater.Config{Building: ds.Building}, locater.PersistOptions{})
	if !errors.Is(err, wal.ErrRetiredFormat) {
		t.Fatalf("Open over a format-v1 snapshot = %v, want wal.ErrRetiredFormat", err)
	}
}

// TestNewSystemPersistAPIIsNoop: Checkpoint/Close on an in-memory system do
// nothing and report no error.
func TestNewSystemPersistAPIIsNoop(t *testing.T) {
	ds := buildDataset(t, 2)
	sys := newSystem(t, ds, locater.Config{})
	if err := sys.Checkpoint(); err != nil {
		t.Errorf("Checkpoint on in-memory system: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("Close on in-memory system: %v", err)
	}
	if _, _, _, ok := sys.PersistStats(); ok {
		t.Error("PersistStats should report !ok on an in-memory system")
	}
}

// personWithBaseRoom returns a simulated person that has a preferred room
// (some profiles, e.g. visitors, have none).
func personWithBaseRoom(ds *sim.Dataset) (sim.Person, bool) {
	for _, p := range ds.People {
		if p.BaseRoom != "" {
			return p, true
		}
	}
	return sim.Person{}, false
}

// sampleQueries picks deterministic daytime query points across devices.
func sampleQueries(ds *sim.Dataset, n int) []locater.Query {
	queries := make([]locater.Query, 0, n)
	for i := 0; len(queries) < n; i++ {
		p := ds.People[i%len(ds.People)]
		hour := 9 + (i*3)%9
		day := 1 + i%3
		queries = append(queries, locater.Query{
			Device: p.Device,
			Time:   simStart.Add(time.Duration(day*24+hour) * time.Hour),
		})
	}
	return queries
}

// TestNonUTCIngestSurvivesRestart: answers read the wall clock of stored
// times (ω's time-of-day window, the day-of-week features), and log and
// segment decoding return UTC. Events ingested in another zone must
// therefore be answered as if they were UTC both before and after a
// restart; a store that kept the caller's zone answered differently once
// recovery handed it the same instants in UTC.
func TestNonUTCIngestSurvivesRestart(t *testing.T) {
	ds := buildDataset(t, 14)
	for _, zone := range []*time.Location{time.UTC, time.FixedZone("UTC-8", -8*3600)} {
		t.Run(zone.String(), func(t *testing.T) {
			dir := t.TempDir()
			live := openSystem(t, ds, dir, locater.PersistOptions{})
			events := make([]locater.Event, len(ds.Events))
			for i, e := range ds.Events {
				e.Time = e.Time.In(zone)
				events[i] = e
			}
			if err := live.Ingest(events); err != nil {
				t.Fatal(err)
			}
			if err := live.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
				t.Fatal(err)
			}
			queries := sampleQueries(ds, 120)
			before := make([]locater.Result, len(queries))
			for i, q := range queries {
				res, err := live.Locate(q.Device, q.Time.In(zone))
				if err != nil {
					t.Fatal(err)
				}
				before[i] = res
			}
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}

			recovered := openSystem(t, ds, dir, locater.PersistOptions{})
			defer recovered.Close()
			differ := 0
			for i, q := range queries {
				res, err := recovered.Locate(q.Device, q.Time)
				if err != nil {
					t.Fatal(err)
				}
				if res != before[i] {
					differ++
					t.Logf("query %d (%s, %v): before %+v, after %+v", i, q.Device, q.Time, before[i], res)
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d answers changed across the restart", differ, len(queries))
			}
		})
	}
}

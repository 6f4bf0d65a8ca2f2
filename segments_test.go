package locater_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
)

// sealingDataset is buildDataset(t, 6) plus one device that reports every
// five minutes over the whole span, rotating across three access points:
// about 1,700 extra events, so the store seals segments at its 512-event
// threshold in each half of the feed.
func sealingDataset(t testing.TB) *sim.Dataset {
	t.Helper()
	ds := buildDataset(t, 6)
	aps := ds.Building.AccessPoints()
	events := append([]locater.Event(nil), ds.Events...)
	for at := simStart; at.Before(simStart.AddDate(0, 0, 6)); at = at.Add(5 * time.Minute) {
		events = append(events, locater.Event{Device: "dense-reporter", Time: at, AP: aps[len(events)%3]})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	dense := *ds
	dense.Events = events
	return &dense
}

// TestSegmentedCrashRecoveryEquivalence is the tentpole's end-to-end
// durability check: checkpoint (manifest #1), keep ingesting past many seal
// boundaries — segments ship to the cold tier at seal time, but no second
// manifest is ever published — then crash. Recovery must come from manifest
// #1 plus the WAL tail: the tail replay re-seals heads the dead run had
// already sealed, producing duplicate (device, seq) cold-tier records that
// resolve last-wins, and every Locate answer must match the live system's.
func TestSegmentedCrashRecoveryEquivalence(t *testing.T) {
	ds := sealingDataset(t)
	dir := t.TempDir()
	cfg := locater.Config{
		Building:           ds.Building,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
	popts := locater.PersistOptions{Fsync: true}

	live, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Events) / 2
	if err := live.Ingest(ds.Events[:half]); err != nil {
		t.Fatal(err)
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The tail: more ingest, more seals — all after the only manifest.
	if err := live.Ingest(ds.Events[half:]); err != nil {
		t.Fatal(err)
	}
	if err := live.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	segs := live.CacheStats().Segments
	if !segs.ColdTier {
		t.Fatalf("segments not on a cold tier: %+v", segs)
	}
	if segs.Segments == 0 || segs.Seals == 0 {
		t.Fatalf("workload sealed nothing: %+v", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, "segments")); err != nil {
		t.Fatalf("cold tier directory missing: %v", err)
	}

	queries := sampleQueries(ds, 40)
	liveResults := live.LocateBatch(queries, 4)

	// Crash: no Close, no second Checkpoint.
	recovered, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	if got, want := recovered.NumEvents(), live.NumEvents(); got != want {
		t.Fatalf("recovered %d events, want %d", got, want)
	}
	rsegs := recovered.CacheStats().Segments
	if rsegs.Segments == 0 {
		t.Fatalf("recovery registered no segments: %+v", rsegs)
	}
	// Cold reads: drop the decoded working set so every window pages in
	// from the crash-surviving cold tier, not the replay's warm cache.
	recovered.StoreForTest().InvalidateSegmentCache()
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
	if st := recovered.CacheStats().Segments; st.DecodeFailures != 0 {
		t.Fatalf("recovery served with decode failures: %+v", st)
	}
}

// TestIncrementalCheckpointSkipsSealedHistory pins the "incremental" in
// incremental snapshots: a second checkpoint after a small tail of new
// events must not grow with total history — its snapshot file stays far
// smaller than one inlining every event would be, because sealed segments
// ride along as manifest entries, not re-encoded events.
func TestIncrementalCheckpointSkipsSealedHistory(t *testing.T) {
	ds := sealingDataset(t)
	dir := t.TempDir()
	cfg := locater.Config{
		Building:    ds.Building,
		HistoryDays: 14,
	}
	sys, err := locater.Open(dir, cfg, locater.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot file found to size-check (%v)", err)
	}
	var snapBytes int64
	for _, p := range snaps {
		if st, err := os.Stat(p); err == nil && st.Size() > snapBytes {
			snapBytes = st.Size()
		}
	}
	segs := sys.CacheStats().Segments
	if segs.SegmentEvents == 0 {
		t.Fatal("nothing sealed; size check is meaningless")
	}
	// Inlining every event would cost ~25-40 bytes each in the snap codec. The incremental one carries only heads + manifest: budget a
	// generous 12 bytes per sealed event to stay robust across codecs while
	// still failing loudly if segments ever get re-inlined.
	if limit := int64(segs.SegmentEvents)*12 + 64*1024; snapBytes > limit {
		t.Errorf("checkpoint wrote %d bytes for %d sealed + %d head events; not incremental (limit %d)",
			snapBytes, segs.SegmentEvents, segs.HeadEvents, limit)
	}
}

// TestCheckpointReclaimsDeadColdTier drives the full reclamation loop: each
// crash-replay cycle re-seals the WAL tail and supersedes the cold tier's
// (device, seq) records, piling up dead prefix copies in the per-device
// files. A later Checkpoint — after its snapshot commits — must rewrite
// those files down to the live set, and every Locate answer must survive the
// rewrite, both against the warm process and across one more recovery.
func TestCheckpointReclaimsDeadColdTier(t *testing.T) {
	ds := sealingDataset(t)
	dir := t.TempDir()
	cfg := locater.Config{
		Building:           ds.Building,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
		ColdTierMmap:       true,
	}
	popts := locater.PersistOptions{Fsync: false}

	// Seed: first half checkpointed, second half only in the WAL tail.
	sys, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Events) / 2
	if err := sys.Ingest(ds.Events[:half]); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(ds.Events[half:]); err != nil {
		t.Fatal(err)
	}
	// Crash cycles: every reopen replays the same tail, re-seals the same
	// segment seqs, and leaves one more dead copy per record behind.
	for i := 0; i < 6; i++ {
		sys, err = locater.Open(dir, cfg, popts)
		if err != nil {
			t.Fatalf("crash cycle %d: %v", i, err)
		}
	}
	if err := sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	queries := sampleQueries(ds, 40)
	before := sys.LocateBatch(queries, 4)

	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := sys.CacheStats().Segments
	if st.Backend.Rewrites == 0 || st.Backend.ReclaimedBytes <= 0 {
		t.Fatalf("checkpoint reclaimed nothing despite %d crash replays: %+v", 6, st.Backend)
	}
	if st.Backend.RewriteFailures != 0 {
		t.Fatalf("reclaim reported rewrite failures: %+v", st.Backend)
	}

	// The rewrite must be invisible to readers: cold reads post-reclaim...
	sys.StoreForTest().InvalidateSegmentCache()
	after := sys.LocateBatch(queries, 4)
	// ...and a full recovery from the rewritten files must agree too.
	rec, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	recovered := rec.LocateBatch(queries, 4)
	for i := range queries {
		if before[i].Err != nil || after[i].Err != nil || recovered[i].Err != nil {
			t.Fatalf("query %d errored: before=%v after=%v recovered=%v",
				i, before[i].Err, after[i].Err, recovered[i].Err)
		}
		b, a, r := before[i].Result, after[i].Result, recovered[i].Result
		if b != a || b != r {
			t.Errorf("query %d (%s, %v): before=%+v after=%+v recovered=%+v",
				i, queries[i].Device, queries[i].Time, b, a, r)
		}
	}
	if rs := rec.CacheStats().Segments; rs.DecodeFailures != 0 {
		t.Fatalf("recovery after reclaim hit decode failures: %+v", rs)
	}
}

package locater

import (
	"fmt"
	"log"
	"path/filepath"
	"time"

	"locater/internal/store"
	"locater/internal/wal"
)

// PersistOptions configures durable operation for Open.
type PersistOptions struct {
	// Fsync makes every acknowledged write (Ingest, SetDelta,
	// AddRoomLabel, …) durable before the call returns: a process or
	// machine crash loses nothing that was acknowledged. Concurrent writers
	// share fsyncs (group commit), so batched ingest keeps its throughput.
	// Without Fsync, writes are flushed to the OS on every commit and to
	// disk on checkpoints; a machine crash can lose the tail.
	Fsync bool
	// SnapshotInterval is how often a background checkpoint runs
	// (snapshot + log compaction). Zero disables automatic checkpoints;
	// call Checkpoint explicitly. Background checkpoint errors are logged
	// and retried at the next tick; a persistent failure (e.g. a full disk)
	// means the log grows uncompacted.
	SnapshotInterval time.Duration
}

// Open assembles a System like New and attaches a durable event store
// rooted at dir: an append-only write-ahead log plus periodic snapshots
// (see internal/wal), with sealed event segments spilled to a cold tier of
// per-device files under "<dir>/segments" (memory-mapped with
// Config.ColdTierMmap). If dir holds a previous run's state, Open recovers
// it — the newest valid snapshot plus the log tail, truncating a torn final
// record — before serving, so a restarted system answers exactly as the one
// that was shut down or killed. Recovery is incremental: sealed segments
// named by the snapshot manifest are registered by metadata alone and paged
// in lazily; only the mutable heads and the log tail are replayed
// event-by-event. A snapshot or segment payload in a retired on-disk format
// fails Open with an error wrapping wal.ErrRetiredFormat.
//
// The caller must Close the returned system to checkpoint and release the
// log; after Close the directory can be reopened.
func Open(dir string, cfg Config, popts PersistOptions) (*System, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	openBackend := store.NewDiskSegmentBackend
	if cfg.ColdTierMmap {
		openBackend = store.NewMmapSegmentBackend
	}
	backend, err := openBackend(filepath.Join(dir, "segments"))
	if err != nil {
		return nil, fmt.Errorf("locater: opening cold tier: %w", err)
	}
	if err := s.store.ConfigureSegments(store.SegmentConfig{Backend: backend}); err != nil {
		backend.Close()
		return nil, err
	}
	w, rec, err := wal.Open(dir, wal.Options{Fsync: popts.Fsync})
	if err != nil {
		s.store.CloseSegments()
		return nil, fmt.Errorf("locater: opening event store: %w", err)
	}
	fail := func(what string, err error) (*System, error) {
		w.Close()
		s.store.CloseSegments()
		return nil, fmt.Errorf("locater: %s: %w", what, err)
	}
	// Restore the recovered state before attaching the backend, so replayed
	// mutations are not re-logged. Segment metadata goes first (it requires
	// an empty store), then deltas, then the head events and log tail, which
	// replay through Ingest and may re-seal past the restored segments.
	if err := s.store.RestoreSegments(rec.Segments); err != nil {
		return fail("restoring segments", err)
	}
	for d, delta := range rec.Deltas {
		if err := s.store.SetDelta(d, delta); err != nil {
			return fail("restoring deltas", err)
		}
	}
	if len(rec.Events) > 0 {
		if _, err := s.store.Ingest(rec.Events); err != nil {
			return fail("replaying events", err)
		}
	}
	s.store.AdvanceNextID(rec.NextID)
	s.labels.Restore(rec.Labels)
	s.store.AttachBackend(w)
	s.wal = w

	if popts.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(popts.SnapshotInterval)
	}
	return s, nil
}

// snapshotLoop checkpoints on a timer until Close. Errors are logged and
// retried at the next tick; Close runs a final checkpoint whose error is
// surfaced to the caller directly.
func (s *System) snapshotLoop(interval time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Checkpoint(); err != nil {
				log.Printf("locater: background checkpoint: %v", err)
			}
		case <-s.snapStop:
			return
		}
	}
}

// Checkpoint writes an incremental snapshot of the durable state — the
// mutable per-device heads, the sealed-segment manifest, per-device δs,
// crowd-sourced labels, the event-ID counter — and compacts the write-ahead
// log (segments fully covered by the snapshot are deleted). Sealed event
// segments are not rewritten: their payloads are already durable in the
// cold tier, so checkpoint cost is proportional to the mutable heads, not
// total history. Recovery then registers the manifest (metadata only),
// replays the heads plus the short log tail, and never re-decodes sealed
// segments. A no-op on systems built with New.
//
// Checkpoint briefly blocks writers while it captures state (one pass over
// the heads); the segment fsync and snapshot file are written with no
// system-wide lock held.
func (s *System) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	// The write lock excludes every appender (Ingest, SetDelta,
	// AddRoomLabel, EstimateDeltas), so the captured state and the captured
	// log position agree exactly.
	s.persistMu.Lock()
	// Merge runt segments before capturing the manifest: the checkpoint
	// then publishes the compacted layout, and the orphaned pre-merge
	// payloads are never referenced again.
	s.store.CompactRuntSegments()
	st := s.store.CheckpointState()
	labels := s.labels.Snapshot()
	lsn := s.wal.LastLSN()
	s.persistMu.Unlock()

	// Segment payloads must be durable before a manifest referencing them
	// is published: the manifest write is the checkpoint's commit point. A
	// crash between the two recovers from the previous manifest plus the
	// log tail — re-sealing produces duplicate (device, seq) records the
	// cold tier resolves last-wins.
	if err := s.store.SyncSegments(); err != nil {
		return fmt.Errorf("locater: syncing segments: %w", err)
	}
	if err := s.wal.WriteSnapshotV2(lsn, &wal.SnapshotData{
		NextID:   st.NextID,
		Deltas:   st.Deltas,
		Events:   st.Heads,
		Segments: st.Segments,
		Labels:   labels,
	}); err != nil {
		return err
	}
	// With the new manifest published (and older snapshots pruned to the
	// fallback), cold-tier records referenced by no retained snapshot and no
	// live segment are dead forever: superseded by a re-seal or merged away
	// by compaction. Rewrite the worst per-device files to drop them —
	// strictly after the commit point, so a crash anywhere in Checkpoint
	// still recovers from a manifest whose payloads are all intact.
	// Reclamation is best-effort space maintenance: a failure is reported
	// (the checkpoint itself already succeeded) and retried next time.
	retained, err := s.wal.RetainedSegmentManifests()
	if err != nil {
		return fmt.Errorf("locater: listing retained snapshots: %w", err)
	}
	if _, err := s.store.ReclaimSegments(retained); err != nil {
		return fmt.Errorf("locater: reclaiming cold tier: %w", err)
	}
	return nil
}

// Close checkpoints and releases the durable event store: the snapshot
// loop is stopped, a final snapshot is written, and the log is flushed,
// synced, and closed. A no-op (nil) on systems built with New. The system
// must not be used after Close.
func (s *System) Close() error {
	if s.wal == nil {
		return nil
	}
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
		s.snapStop = nil
	}
	err := s.Checkpoint()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	if cerr := s.store.CloseSegments(); err == nil {
		err = cerr
	}
	s.store.AttachBackend(nil)
	s.wal = nil
	return err
}

// PersistStats reports the durable event store's shape: segment count, last
// appended log position, and highest position known durable. ok is false
// for systems built with New.
func (s *System) PersistStats() (segments int, lastLSN, durableLSN uint64, ok bool) {
	if s.wal == nil {
		return 0, 0, 0, false
	}
	segments, lastLSN, durableLSN = s.wal.Stats()
	return segments, lastLSN, durableLSN, true
}

// Compile-time check: the WAL satisfies the store's durability hook.
var _ store.Backend = (*wal.WAL)(nil)

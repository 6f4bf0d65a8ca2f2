package wal

// WriteSnapshot persists a full-state (format v1) checkpoint, as versions
// before the segmented store did: the tests write one to keep the reader of
// old snapshots covered. Prune/compaction semantics are WriteSnapshotV2's.
func (w *WAL) WriteSnapshot(lsn uint64, data *SnapshotData) error {
	return w.publishSnapshot(lsn, data, snapMagic)
}

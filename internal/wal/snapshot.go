package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// snapMagic leads every snapshot file: format v2, the incremental form. Only
// the mutable heads are inlined, and sealed segments appear as a metadata
// manifest — their payloads are already durable in the store's segment
// backend, so a checkpoint ships new heads plus new manifest entries instead
// of rewriting total history. A file that starts with the retired format-v1
// magic (every event of every device inlined) is refused with an error
// wrapping ErrRetiredFormat.
const (
	snapMagic        = "LOCSNAP2"
	retiredSnapMagic = "LOCSNAP1"
)

// SnapshotData is the state captured by a checkpoint: everything recovery
// needs without replaying the log from the beginning.
type SnapshotData struct {
	// NextID is the store's event-ID counter at capture time.
	NextID int64
	// Deltas are the per-device validity intervals δ(d).
	Deltas map[event.DeviceID]time.Duration
	// Events are the per-device mutable heads, each sorted by time.
	Events map[event.DeviceID][]event.Event
	// Segments is the per-device sealed-segment manifest. The referenced
	// payloads must be durable in the segment backend before the snapshot is
	// published.
	Segments map[event.DeviceID][]SegmentMeta
	// Labels are the crowd-sourced room-label counts.
	Labels map[event.DeviceID]map[space.RoomID]int
}

// WriteSnapshotV2 persists an incremental (format v2) checkpoint covering
// every record with LSN ≤ lsn, then compacts: data's Events hold only the
// mutable heads and Segments carries the sealed-segment manifest. The caller
// must have made the referenced segment payloads durable
// (store.SyncSegments) BEFORE calling this — publishing a manifest is the
// commit point of an incremental checkpoint, and it must never point at
// bytes a crash could lose.
//
// Only the two newest snapshots are kept (the older one is the fallback if
// the newest is later found corrupt), and sealed log segments are deleted
// only once no retained snapshot needs them — compaction reaches up to the
// OLDEST retained snapshot's LSN, so the fallback snapshot always still has
// its tail segments on disk. The file is written to a temporary name,
// synced, and renamed, so a crash mid-snapshot never leaves a half-written
// snapshot under the real name.
//
// The caller must guarantee that data actually reflects all records with
// LSN ≤ lsn and no records after it (locater.System captures both under its
// checkpoint lock).
func (w *WAL) WriteSnapshotV2(lsn uint64, data *SnapshotData) error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()

	path := filepath.Join(w.dir, fmt.Sprintf("%s%020d%s", snapPrefix, lsn, snapSuffix))
	tmp := path + ".tmp"
	if err := writeSnapshotFile(tmp, lsn, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}

	oldestRetained := w.pruneSnapshots(path, lsn)
	w.compact(oldestRetained)
	return nil
}

func writeSnapshotFile(path string, lsn uint64, data *SnapshotData) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(encodeSnapshot(lsn, data)); err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	return f.Close()
}

// encodeSnapshot returns a snapshot file's bytes: the magic, the LSN and the
// body, then a CRC-32C over everything after the magic. Maps are written in
// key order, so equal data encodes to equal bytes.
func encodeSnapshot(lsn uint64, data *SnapshotData) []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.AppendVarint(b, data.NextID)

	devs := sortedKeys(data.Deltas)
	b = binary.AppendUvarint(b, uint64(len(devs)))
	for _, d := range devs {
		b = appendString(b, string(d))
		b = binary.AppendVarint(b, int64(data.Deltas[d]))
	}

	evDevs := sortedKeys(data.Events)
	b = binary.AppendUvarint(b, uint64(len(evDevs)))
	for _, d := range evDevs {
		evs := data.Events[d]
		b = appendString(b, string(d))
		b = binary.AppendUvarint(b, uint64(len(evs)))
		for _, e := range evs {
			b = binary.AppendVarint(b, e.ID)
			b = binary.AppendVarint(b, e.Time.UnixNano())
			b = appendString(b, string(e.AP))
		}
	}

	segDevs := sortedKeys(data.Segments)
	b = binary.AppendUvarint(b, uint64(len(segDevs)))
	for _, d := range segDevs {
		metas := data.Segments[d]
		b = appendString(b, string(d))
		b = binary.AppendUvarint(b, uint64(len(metas)))
		for _, m := range metas {
			b = binary.AppendUvarint(b, m.Seq)
			b = binary.AppendUvarint(b, uint64(m.Count))
			b = binary.AppendVarint(b, m.MinNanos)
			b = binary.AppendVarint(b, m.MaxNanos)
			b = binary.AppendUvarint(b, uint64(m.Bytes))
		}
	}

	labDevs := sortedKeys(data.Labels)
	b = binary.AppendUvarint(b, uint64(len(labDevs)))
	for _, d := range labDevs {
		rooms := data.Labels[d]
		roomIDs := sortedKeys(rooms)
		b = appendString(b, string(d))
		b = binary.AppendUvarint(b, uint64(len(roomIDs)))
		for _, r := range roomIDs {
			b = appendString(b, string(r))
			b = binary.AppendUvarint(b, uint64(rooms[r]))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(snapMagic):], castagnoli))
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// compact deletes sealed segments whose records are all at or below lsn —
// the oldest LSN any retained snapshot covers, so recovery from any of
// them still finds a contiguous tail. The active segment is never deleted.
func (w *WAL) compact(lsn uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.sealed[:0]
	for _, seg := range w.sealed {
		if seg.lastLSN <= lsn {
			// Best-effort: a segment that cannot be removed now is retried
			// at the next checkpoint.
			if err := os.Remove(seg.path); err == nil || os.IsNotExist(err) {
				continue
			}
		}
		keep = append(keep, seg)
	}
	w.sealed = keep
}

// pruneSnapshots keeps the just-written snapshot plus the next newest one
// (a fallback if the newest is later found corrupt), deletes the rest, and
// returns the oldest retained snapshot's LSN — the compaction bound.
func (w *WAL) pruneSnapshots(newest string, newestLSN uint64) uint64 {
	oldestRetained := newestLSN
	snaps, err := listSnapshots(w.dir)
	if err != nil {
		return oldestRetained
	}
	kept := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		if snaps[i].path == newest || kept < 2 {
			kept++
			if snaps[i].lsn < oldestRetained {
				oldestRetained = snaps[i].lsn
			}
			continue
		}
		os.Remove(snaps[i].path)
	}
	return oldestRetained
}

// RetainedSegmentManifests parses every retained snapshot file and returns
// their sealed-segment manifests. The union of these manifests plus the store's current refs is the
// cold tier's live set: a (device, seq) referenced by NO retained snapshot
// and no current ref can never be needed by recovery again, so checkpoint
// uses this to reclaim dead cold-tier records. Unreadable snapshots are
// skipped — a manifest that cannot be parsed keeps nothing alive, exactly as
// recovery itself would treat it.
func (w *WAL) RetainedSegmentManifests() ([]map[event.DeviceID][]SegmentMeta, error) {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	snaps, err := listSnapshots(w.dir)
	if err != nil {
		return nil, err
	}
	manifests := make([]map[event.DeviceID][]SegmentMeta, 0, len(snaps))
	for _, sn := range snaps {
		var rec Recovered
		if _, err := readSnapshotFile(sn.path, &rec); err != nil {
			continue
		}
		manifests = append(manifests, rec.Segments)
	}
	return manifests, nil
}

type snapshotInfo struct {
	path string
	lsn  uint64
}

// listSnapshots returns the directory's snapshot files ordered by LSN.
func listSnapshots(dir string) ([]snapshotInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var snaps []snapshotInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unparseable snapshot name %q", name)
		}
		snaps = append(snaps, snapshotInfo{path: filepath.Join(dir, name), lsn: lsn})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	return snaps, nil
}

// loadNewestSnapshot loads the newest parseable snapshot into rec and
// returns its LSN. Corrupt snapshots fall back to the next older one (the
// segment-continuity check in Open catches a fallback that reaches past
// compacted segments). A snapshot in a retired format stops recovery with
// its error: it is not corrupt, and skipping it would silently recover older
// state. With snapshots present but none readable, recovery fails loudly
// instead of silently starting empty.
func loadNewestSnapshot(dir string, rec *Recovered) (uint64, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	var lastErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		lsn, err := readSnapshotFile(snaps[i].path, rec)
		if errors.Is(err, ErrRetiredFormat) {
			return 0, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		if lsn != snaps[i].lsn {
			lastErr = fmt.Errorf("wal: snapshot %s: header LSN %d does not match file name", filepath.Base(snaps[i].path), lsn)
			continue
		}
		return lsn, nil
	}
	if lastErr != nil {
		return 0, fmt.Errorf("wal: no readable snapshot: %w", lastErr)
	}
	return 0, nil
}

// readSnapshotFile parses one snapshot file into rec, overwriting its state.
func readSnapshotFile(path string, rec *Recovered) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	lsn, err := decodeSnapshot(data, rec)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	return lsn, nil
}

// decodeSnapshot parses a snapshot file's bytes into rec, overwriting its
// state, and returns the snapshot's LSN. The bytes come straight off disk,
// so no count read from them sizes an allocation past the bytes left.
func decodeSnapshot(data []byte, rec *Recovered) (uint64, error) {
	if len(data) < len(snapMagic)+8+4 {
		return 0, errors.New("bad header")
	}
	switch string(data[:len(snapMagic)]) {
	case snapMagic:
	case retiredSnapMagic:
		return 0, fmt.Errorf("format v1: %w", ErrRetiredFormat)
	default:
		return 0, errors.New("bad header")
	}
	body := data[len(snapMagic) : len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, errors.New("CRC mismatch")
	}
	lsn := binary.LittleEndian.Uint64(body[:8])

	d := &decoder{b: body[8:]}
	nextID := d.varint()

	// Reset before filling: a previous (corrupt) snapshot attempt must not
	// leak partial state into this parse.
	rec.NextID = nextID
	rec.Events = nil
	rec.Deltas = make(map[event.DeviceID]time.Duration)
	rec.Labels = make(map[event.DeviceID]map[space.RoomID]int)
	rec.Segments = make(map[event.DeviceID][]SegmentMeta)

	nDeltas := d.uvarint()
	for i := uint64(0); i < nDeltas && d.err == nil; i++ {
		dev := event.DeviceID(d.str())
		rec.Deltas[dev] = time.Duration(d.varint())
	}

	nDevs := d.uvarint()
	for i := uint64(0); i < nDevs && d.err == nil; i++ {
		dev := event.DeviceID(d.str())
		nEvs := d.uvarint()
		for j := uint64(0); j < nEvs && d.err == nil; j++ {
			ev := event.Event{
				ID:     d.varint(),
				Device: dev,
			}
			ev.Time = time.Unix(0, d.varint()).UTC()
			ev.AP = space.APID(d.str())
			if ev.ID == math.MaxInt64 {
				// No ID follows it, so NextID cannot move past it.
				d.fail("event ID")
			}
			rec.Events = append(rec.Events, ev)
			if ev.ID >= rec.NextID {
				rec.NextID = ev.ID + 1
			}
		}
	}

	nSegDevs := d.uvarint()
	for i := uint64(0); i < nSegDevs && d.err == nil; i++ {
		dev := event.DeviceID(d.str())
		nSegs := d.uvarint()
		// Each entry takes at least five bytes.
		metas := make([]SegmentMeta, 0, min(nSegs, uint64(d.remaining()/5)))
		for j := uint64(0); j < nSegs && d.err == nil; j++ {
			metas = append(metas, SegmentMeta{
				Seq:      d.uvarint(),
				Count:    int(d.uvarint()),
				MinNanos: d.varint(),
				MaxNanos: d.varint(),
				Bytes:    int(d.uvarint()),
			})
		}
		if d.err == nil {
			rec.Segments[dev] = metas
		}
	}

	nLabs := d.uvarint()
	for i := uint64(0); i < nLabs && d.err == nil; i++ {
		dev := event.DeviceID(d.str())
		nRooms := d.uvarint()
		// Each entry takes at least two bytes.
		m := make(map[space.RoomID]int, min(nRooms, uint64(d.remaining()/2)))
		for j := uint64(0); j < nRooms && d.err == nil; j++ {
			room := space.RoomID(d.str())
			m[room] = int(d.uvarint())
		}
		if d.err == nil {
			rec.Labels[dev] = m
		}
	}

	if d.err != nil {
		return 0, d.err
	}
	if d.remaining() != 0 {
		return 0, fmt.Errorf("%d trailing bytes", d.remaining())
	}
	return lsn, nil
}

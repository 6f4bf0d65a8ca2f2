package wal

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"locater/internal/event"
)

// TestSnapshotV2RoundTrip writes an incremental (v2) snapshot — mutable
// heads plus a sealed-segment manifest — and checks recovery returns both
// exactly, with the log tail replayed on top.
func TestSnapshotV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentSize: 256})
	heads := map[event.DeviceID][]event.Event{}
	for i := 0; i < 20; i++ {
		e := mkEvent(int64(i+1), "aa", time.Duration(i)*time.Second, "ap1")
		heads["aa"] = append(heads["aa"], e)
		if err := w.AppendEvents([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	manifest := map[event.DeviceID][]SegmentMeta{
		"aa": {
			{Seq: 1, Count: 512, MinNanos: 1000, MaxNanos: 2000, Bytes: 900},
			{Seq: 2, Count: 512, MinNanos: 1500, MaxNanos: 9000, Bytes: 905},
		},
		"bb": {
			{Seq: 1, Count: 7, MinNanos: -50, MaxNanos: 40, Bytes: 60},
		},
	}
	lsn := w.LastLSN()
	err := w.WriteSnapshotV2(lsn, &SnapshotData{
		NextID:   21,
		Deltas:   map[event.DeviceID]time.Duration{"aa": 4 * time.Minute},
		Events:   heads,
		Segments: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	tail := []event.Event{mkEvent(21, "bb", time.Hour, "ap2")}
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
	sameEvents(t, rec.Events, append(append([]event.Event(nil), heads["aa"]...), tail...))
	if rec.Deltas["aa"] != 4*time.Minute {
		t.Errorf("delta lost: %v", rec.Deltas)
	}
	if len(rec.Segments) != 2 {
		t.Fatalf("recovered %d manifest devices, want 2: %v", len(rec.Segments), rec.Segments)
	}
	for dev, want := range manifest {
		got := rec.Segments[dev]
		if len(got) != len(want) {
			t.Fatalf("device %s: %d manifest entries, want %d", dev, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("device %s seg %d: %+v, want %+v", dev, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotV1Refused: a format-v1 snapshot is refused with
// ErrRetiredFormat, both as the newest snapshot and as the fallback behind
// a corrupt newest one. Recovery must neither start from an older snapshot
// past it nor treat it as corrupt.
func TestSnapshotV1Refused(t *testing.T) {
	for _, tc := range []struct {
		name       string
		v1, broken int // snapshot indexes (oldest first); -1 = none
	}{
		{"newest is v1", 1, -1},
		{"fallback is v1", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _ := mustOpen(t, dir, Options{})
			for i := 1; i <= 2; i++ {
				if err := w.AppendEvents([]event.Event{mkEvent(int64(i), "aa", time.Duration(i)*time.Minute, "ap1")}); err != nil {
					t.Fatal(err)
				}
				if err := w.WriteSnapshotV2(w.LastLSN(), &SnapshotData{NextID: int64(i + 1)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, err := listSnapshots(dir)
			if err != nil || len(snaps) != 2 {
				t.Fatalf("want 2 snapshots, got %d (%v)", len(snaps), err)
			}
			// The CRC covers only what follows the magic, so a retagged file
			// is a well-formed v1 header over an intact body.
			data, err := os.ReadFile(snaps[tc.v1].path)
			if err != nil {
				t.Fatal(err)
			}
			copy(data, retiredSnapMagic)
			if err := os.WriteFile(snaps[tc.v1].path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.broken >= 0 {
				data, err := os.ReadFile(snaps[tc.broken].path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0xff
				if err := os.WriteFile(snaps[tc.broken].path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			w2, _, err := Open(dir, Options{})
			if err == nil {
				w2.Close()
				t.Fatal("Open recovered past a format-v1 snapshot")
			}
			if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "a8b970d") {
				t.Fatalf("Open error = %v, want ErrRetiredFormat naming the last reading version", err)
			}
		})
	}
}

// TestTornV2SnapshotFallsBack simulates a crash between shipping segments
// and durably publishing the manifest: the newest v2 snapshot file is torn,
// so recovery must come from the previous manifest plus the log tail —
// never from the half-written one.
func TestTornV2SnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	evs := []event.Event{mkEvent(1, "aa", 0, "ap1")}
	if err := w.AppendEvents(evs); err != nil {
		t.Fatal(err)
	}
	firstManifest := map[event.DeviceID][]SegmentMeta{
		"aa": {{Seq: 1, Count: 3, MinNanos: 10, MaxNanos: 30, Bytes: 44}},
	}
	if err := w.WriteSnapshotV2(1, &SnapshotData{NextID: 2, Events: map[event.DeviceID][]event.Event{"aa": evs}, Segments: firstManifest}); err != nil {
		t.Fatal(err)
	}
	more := []event.Event{mkEvent(2, "bb", time.Minute, "ap2")}
	if err := w.AppendEvents(more); err != nil {
		t.Fatal(err)
	}
	secondManifest := map[event.DeviceID][]SegmentMeta{
		"aa": {{Seq: 1, Count: 3, MinNanos: 10, MaxNanos: 30, Bytes: 44}, {Seq: 2, Count: 5, MinNanos: 40, MaxNanos: 90, Bytes: 61}},
	}
	if err := w.WriteSnapshotV2(2, &SnapshotData{
		NextID:   3,
		Events:   map[event.DeviceID][]event.Event{"aa": evs, "bb": more},
		Segments: secondManifest,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the newest snapshot mid-file: the body CRC no longer matches, as
	// after a crash that interrupted the write before the final fsync.
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %d (%v)", len(snaps), err)
	}
	data, err := os.ReadFile(snaps[1].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[1].path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rec := mustOpen(t, dir, Options{})
	defer w2.Close()
	if rec.SnapshotLSN != 1 {
		t.Errorf("SnapshotLSN = %d, want fallback to 1", rec.SnapshotLSN)
	}
	// The fallback manifest is the FIRST checkpoint's — one segment, not
	// two — and the tail replays the second device's event.
	if len(rec.Segments) != 1 || len(rec.Segments["aa"]) != 1 || rec.Segments["aa"][0] != firstManifest["aa"][0] {
		t.Fatalf("fallback manifest = %v, want %v", rec.Segments, firstManifest)
	}
	sameEvents(t, rec.Events, append(append([]event.Event(nil), evs...), more...))
}

// TestRetainedSegmentManifests checks the checkpoint-reclaim input: after
// several snapshots only the two newest are retained, and their manifests —
// not the pruned ones' — come back. An unreadable (corrupted) retained
// snapshot contributes nothing, matching what recovery itself would do.
func TestRetainedSegmentManifests(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentSize: 1 << 20})
	defer w.Close()
	manifestAt := func(seq uint64) map[event.DeviceID][]SegmentMeta {
		return map[event.DeviceID][]SegmentMeta{
			"aa": {{Seq: seq, Count: 4, MinNanos: 10, MaxNanos: 20, Bytes: 64}},
		}
	}
	for i := 1; i <= 3; i++ {
		if err := w.AppendEvents([]event.Event{mkEvent(int64(i), "aa", time.Duration(i)*time.Second, "ap1")}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteSnapshotV2(w.LastLSN(), &SnapshotData{NextID: int64(i + 1), Segments: manifestAt(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := w.RetainedSegmentManifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d retained manifests, want 2 (keep-two pruning)", len(got))
	}
	seqs := map[uint64]bool{}
	for _, m := range got {
		for _, sm := range m["aa"] {
			seqs[sm.Seq] = true
		}
	}
	if !seqs[2] || !seqs[3] || seqs[1] {
		t.Fatalf("retained manifests carry seqs %v, want exactly {2, 3}", seqs)
	}

	// Corrupt the older retained snapshot: it must silently drop out.
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("listSnapshots = %v, %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snaps[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = w.RetainedSegmentManifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d manifests after corrupting one, want 1", len(got))
	}
}

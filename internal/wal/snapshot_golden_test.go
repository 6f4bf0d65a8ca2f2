package wal

import (
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

var update = flag.Bool("update", false, "rewrite testdata/snapshot-v2.golden")

// snapshotGolden pins the bytes of a format-v2 snapshot file as hex, 32
// bytes a line. Snapshots written by older builds must stay readable, so
// a change to the writer must not move one byte.
const snapshotGolden = "testdata/snapshot-v2.golden"

// goldenSnapshot covers every section of the format: negative and large
// varints, empty and non-ASCII strings, a device with an empty head and one
// with an empty manifest, and several rooms per labeled device.
func goldenSnapshot() *SnapshotData {
	return &SnapshotData{
		NextID: 1 << 40,
		Deltas: map[event.DeviceID]time.Duration{
			"aa:01": 7 * time.Minute,
			"bb:02": -1,
			"":      0,
		},
		Events: map[event.DeviceID][]event.Event{
			"aa:01": {
				mkEvent(5, "aa:01", -time.Hour, "dbh-wap44"),
				mkEvent(9, "aa:01", 0, "dbh-wap44"),
				mkEvent(1<<40-1, "aa:01", 90*time.Minute, "réseau-ü"),
			},
			"bb:02": {mkEvent(-3, "bb:02", 24*time.Hour, "")},
			"cc:03": {},
		},
		Segments: map[event.DeviceID][]SegmentMeta{
			"aa:01": {
				{Seq: 1, Count: 512, MinNanos: -1 << 62, MaxNanos: 1 << 62, Bytes: 900},
				{Seq: 1 << 33, Count: 1, MinNanos: 0, MaxNanos: 0, Bytes: 17},
			},
			"dd:04": {},
		},
		Labels: map[event.DeviceID]map[space.RoomID]int{
			"aa:01": {"2065": 3, "2061": 1, "": 0},
			"bb:02": {"2099": 1 << 20},
		},
	}
}

// TestSnapshotBytesGolden writes goldenSnapshot and compares the file with
// the recorded fixture byte for byte, then checks it recovers to the data.
func TestSnapshotBytesGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	const lsn = 0x0102030405060708
	if err := writeSnapshotFile(path, lsn, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < len(got); i += 32 {
		sb.WriteString(hex.EncodeToString(got[i:min(i+32, len(got))]))
		sb.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(snapshotGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(snapshotGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if sb.String() != string(want) {
		t.Fatalf("snapshot bytes differ from %s:\ngot:\n%swant:\n%s", snapshotGolden, sb.String(), want)
	}

	var rec Recovered
	gotLSN, err := readSnapshotFile(path, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if gotLSN != lsn {
		t.Errorf("LSN = %#x, want %#x", gotLSN, lsn)
	}
	if rec.NextID != 1<<40 {
		t.Errorf("NextID = %d, want %d", rec.NextID, int64(1<<40))
	}
	var heads []event.Event
	for _, evs := range goldenSnapshot().Events {
		heads = append(heads, evs...)
	}
	sameEvents(t, rec.Events, heads)
	if rec.Segments["aa:01"][1].Seq != 1<<33 || rec.Labels["bb:02"]["2099"] != 1<<20 || rec.Deltas["bb:02"] != -1 {
		t.Errorf("recovered state differs: %+v", rec)
	}
}

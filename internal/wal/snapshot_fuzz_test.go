package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"time"

	"locater/internal/event"
)

// snapshotOf turns recovered state back into the data a checkpoint writes,
// keeping each device's events in recovered order.
func snapshotOf(rec *Recovered) *SnapshotData {
	return &SnapshotData{
		NextID:   rec.NextID,
		Deltas:   rec.Deltas,
		Events:   eventsByDevice(rec.Events),
		Segments: rec.Segments,
		Labels:   rec.Labels,
	}
}

func eventsByDevice(evs []event.Event) map[event.DeviceID][]event.Event {
	out := make(map[event.DeviceID][]event.Event)
	for _, e := range evs {
		out[e.Device] = append(out[e.Device], e)
	}
	return out
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot reader, both as a
// whole file and as a body framed with the magic and a valid CRC (so the
// mutations reach the body parser instead of stopping at the checksum). No
// input may panic. A snapshot that parses, once rewritten with the
// writer's encoding (writeSnapshotFile writes encodeSnapshot's bytes),
// must parse back to the same LSN and recovered state.
func FuzzReadSnapshot(f *testing.F) {
	empty := &SnapshotData{}
	small := &SnapshotData{
		NextID: 3,
		Deltas: map[event.DeviceID]time.Duration{"aa": time.Minute},
		Events: map[event.DeviceID][]event.Event{"aa": {mkEvent(1, "aa", 0, "ap1"), mkEvent(2, "aa", time.Minute, "ap2")}},
	}
	for _, data := range []*SnapshotData{empty, small, goldenSnapshot()} {
		file := encodeSnapshot(7, data)
		f.Add(file)
		f.Add(file[len(snapMagic) : len(file)-4])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		body := append([]byte(snapMagic), b...)
		body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(b, castagnoli))
		for _, file := range [][]byte{b, body} {
			var rec Recovered
			lsn, err := decodeSnapshot(file, &rec)
			if err != nil {
				continue
			}
			again := encodeSnapshot(lsn, snapshotOf(&rec))
			var rec2 Recovered
			lsn2, err := decodeSnapshot(again, &rec2)
			if err != nil {
				t.Fatalf("rewritten snapshot %x does not parse: %v", again, err)
			}
			if lsn2 != lsn || rec2.NextID != rec.NextID ||
				!reflect.DeepEqual(rec2.Deltas, rec.Deltas) ||
				!reflect.DeepEqual(eventsByDevice(rec2.Events), eventsByDevice(rec.Events)) ||
				!reflect.DeepEqual(rec2.Segments, rec.Segments) ||
				!reflect.DeepEqual(rec2.Labels, rec.Labels) {
				t.Fatalf("rewrite changed the snapshot:\n%+v (LSN %d)\n%+v (LSN %d)", rec, lsn, rec2, lsn2)
			}
		}
	})
}

// TestSnapshotRefusesLastEventID checks that a head event with ID
// math.MaxInt64 is refused: no ID follows it, so NextID would wrap.
func TestSnapshotRefusesLastEventID(t *testing.T) {
	file := encodeSnapshot(1, &SnapshotData{
		Events: map[event.DeviceID][]event.Event{"aa": {mkEvent(math.MaxInt64, "aa", 0, "ap1")}},
	})
	var rec Recovered
	if _, err := decodeSnapshot(file, &rec); err == nil {
		t.Fatalf("snapshot with event ID MaxInt64 parsed: NextID %d", rec.NextID)
	}
}

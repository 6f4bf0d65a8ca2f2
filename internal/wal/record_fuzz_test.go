package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"
)

// encodeRecord re-encodes a decoded record with the writer's own encoder.
func encodeRecord(r record) []byte {
	switch r.kind {
	case recEvent:
		return encodeEvent(nil, r.ev)
	case recDelta:
		return encodeDelta(nil, r.dev, r.delta)
	default:
		return encodeLabel(nil, r.dev, r.room, r.at)
	}
}

func sameRecord(a, b record) bool {
	return a.kind == b.kind &&
		a.ev.ID == b.ev.ID && a.ev.Device == b.ev.Device && a.ev.Time.Equal(b.ev.Time) && a.ev.AP == b.ev.AP &&
		a.dev == b.dev && a.delta == b.delta && a.room == b.room && a.at.Equal(b.at)
}

// FuzzDecodeRecord feeds arbitrary payloads to the WAL record decoder.
// Recovery trusts it with every CRC-valid frame, so it must never panic,
// and any payload it accepts must survive encode → decode unchanged: the
// decoded record is a fixed point. Byte equality with the input is not
// required — an overlong varint decodes to the same value the writer
// encodes shorter.
func FuzzDecodeRecord(f *testing.F) {
	at := time.Date(2026, 1, 7, 11, 0, 0, 0, time.UTC)
	f.Add(encodeEvent(nil, mkEvent(42, "d00:00:01", time.Hour, "dbh-wap44")))
	f.Add(encodeDelta(nil, "d00:00:01", 7*time.Minute))
	f.Add(encodeLabel(nil, "d00:00:01", "room-2065", at))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		enc := encodeRecord(r)
		r2, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record %x does not decode: %v", enc, err)
		}
		if !sameRecord(r, r2) {
			t.Fatalf("decode → encode → decode changed the record: %+v → %+v", r, r2)
		}
		if enc2 := encodeRecord(r2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not stable: %x then %x", enc, enc2)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader segment replay
// walks the log with: it must never panic, an accepted frame must fit in
// the input (n ≤ len(b)), and a refused one consumes nothing.
func FuzzReadFrame(f *testing.F) {
	payload := encodeEvent(nil, mkEvent(1, "d00:00:01", 0, "ap1"))
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	f.Add(frame)
	f.Add(frame[:frameHdrLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, n, err := readFrame(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("refused frame consumed %d bytes", n)
			}
			return
		}
		if n > len(b) || n != frameHdrLen+len(p) {
			t.Fatalf("frame of %d payload bytes consumed %d of %d input bytes", len(p), n, len(b))
		}
	})
}

package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// segEvents builds n sorted same-device events with semi-regular spacing and
// a small AP alphabet — the shape real association logs have.
func segEvents(n int, seed int64) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]event.Event, n)
	at := t0
	for i := range evs {
		at = at.Add(time.Duration(1+rng.Intn(600)) * time.Second)
		evs[i] = event.Event{
			ID:     int64(100 + i),
			Device: "dev-a",
			Time:   at,
			AP:     space.APID([]string{"ap-1", "ap-2", "ap-3"}[rng.Intn(3)]),
		}
	}
	return evs
}

func TestEncodeSegmentRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 200} {
		for _, blockEvents := range []int{-1, 0, 1, 3, 64, 1000} {
			evs := segEvents(n, int64(n*1000+blockEvents))
			payload, metas := EncodeSegment(nil, evs, blockEvents)

			// The returned index and the parsed one must agree exactly
			// (modulo the trailer: EncodeSegment's Len excludes it only for
			// the region covered — both describe the same block ranges).
			parsed, dict, err := parseSegmentIndex(payload)
			if err != nil {
				t.Fatalf("n=%d be=%d: ParseSegmentIndex: %v", n, blockEvents, err)
			}
			if len(dict) == 0 || len(dict) > 3 {
				t.Fatalf("n=%d be=%d: segment dictionary has %d APs", n, blockEvents, len(dict))
			}
			if len(parsed) != len(metas) {
				t.Fatalf("n=%d be=%d: %d parsed blocks, encoder returned %d", n, blockEvents, len(parsed), len(metas))
			}
			wantBlocks := 1
			if blockEvents > 0 && blockEvents < n {
				wantBlocks = (n + blockEvents - 1) / blockEvents
			}
			if len(parsed) != wantBlocks {
				t.Fatalf("n=%d be=%d: %d blocks, want %d", n, blockEvents, len(parsed), wantBlocks)
			}
			total := 0
			for i, m := range parsed {
				if m != metas[i] {
					t.Fatalf("n=%d be=%d: block %d parsed %+v, encoded %+v", n, blockEvents, i, m, metas[i])
				}
				total += m.Count
				// Every block must decode independently against its slice.
				sub, err := decodeIndexedBlock(payload[m.Off:m.Off+m.Len], "dev-a", dict, m.MinNanos, nil)
				if err != nil {
					t.Fatalf("n=%d be=%d: block %d decode: %v", n, blockEvents, i, err)
				}
				if len(sub) != m.Count {
					t.Fatalf("n=%d be=%d: block %d decoded %d events, meta says %d", n, blockEvents, i, len(sub), m.Count)
				}
				// MinNanos is always the block's exact first event time.
				// MaxNanos is the exact last event time for the final block;
				// earlier blocks report the successor's min — an upper bound.
				if sub[0].Time.UnixNano() != m.MinNanos {
					t.Fatalf("n=%d be=%d: block %d min diverges from index", n, blockEvents, i)
				}
				last := sub[len(sub)-1].Time.UnixNano()
				if i == len(parsed)-1 {
					if last != m.MaxNanos {
						t.Fatalf("n=%d be=%d: final block max %d, index says %d", n, blockEvents, last, m.MaxNanos)
					}
				} else if last > m.MaxNanos || m.MaxNanos != parsed[i+1].MinNanos {
					t.Fatalf("n=%d be=%d: block %d conservative max %d (last event %d, next min %d)",
						n, blockEvents, i, m.MaxNanos, last, parsed[i+1].MinNanos)
				}
			}
			if total != n {
				t.Fatalf("n=%d be=%d: index counts sum to %d", n, blockEvents, total)
			}

			got, err := DecodeSegment(payload, "dev-a", nil)
			if err != nil {
				t.Fatalf("n=%d be=%d: DecodeSegment: %v", n, blockEvents, err)
			}
			sameEvents(t, got, evs)
		}
	}
}

// TestBareBlockSegmentRefused: a payload without the index trailer — the
// retired un-indexed format, one self-contained block per segment — is
// refused with ErrRetiredFormat by both the index parser and the full
// decoder, never decoded and never reported as plain corruption.
func TestBareBlockSegmentRefused(t *testing.T) {
	payload, metas := EncodeSegment(nil, segEvents(40, 7), 0)
	// The blocks region of a one-block segment is the shape a bare-block
	// payload had: a count-led block with its own CRC and no trailer.
	bare := payload[:metas[0].Len]
	if _, _, err := parseSegmentIndex(bare); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("parseSegmentIndex(bare block) = %v, want ErrRetiredFormat", err)
	}
	got, err := DecodeSegment(bare, "dev-a", nil)
	if !errors.Is(err, ErrRetiredFormat) || len(got) != 0 {
		t.Fatalf("DecodeSegment(bare block) = %d events, %v; want ErrRetiredFormat", len(got), err)
	}
	if !strings.Contains(err.Error(), "a8b970d") {
		t.Fatalf("refusal %q does not name the last version that reads the format", err)
	}
}

// TestSegmentRefusesEveryByteFlip flips every single byte of a
// block-indexed payload and requires DecodeSegment to refuse it: block
// corruption fails the block CRC, trailer corruption fails the index CRC or
// its validation, and magic corruption makes the payload un-indexed, which
// is refused. Nothing may panic and nothing may decode silently.
func TestSegmentRefusesEveryByteFlip(t *testing.T) {
	evs := segEvents(48, 3)
	payload, _ := EncodeSegment(nil, evs, 8)
	mut := make([]byte, len(payload))
	for i := range payload {
		copy(mut, payload)
		mut[i] ^= 0x41
		if _, err := DecodeSegment(mut, "dev-a", nil); err == nil {
			t.Fatalf("byte %d of %d: corrupted payload decoded without error", i, len(payload))
		}
	}
}

// TestSegmentRefusesTruncation truncates the payload at every length — a
// torn cold-tier write can persist any prefix. Every truncation loses the
// trailer's magic, so every one must be refused.
func TestSegmentRefusesTruncation(t *testing.T) {
	evs := segEvents(32, 11)
	payload, _ := EncodeSegment(nil, evs, 8)
	for n := 0; n < len(payload); n++ {
		if got, err := DecodeSegment(payload[:n], "dev-a", nil); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded %d events without error", n, len(payload), len(got))
		}
	}
}

// TestParseSegmentIndexHostileCounts feeds trailers with absurd block
// counts/lengths and requires bounded, error-returning behavior (no huge
// allocations, no over-read panics).
func TestParseSegmentIndexHostileCounts(t *testing.T) {
	evs := segEvents(16, 5)
	payload, _ := EncodeSegment(nil, evs, 4)
	// Grow the declared trailer length past the payload.
	mut := append([]byte(nil), payload...)
	mut[len(mut)-8] = 0xff
	mut[len(mut)-7] = 0xff
	if _, _, err := parseSegmentIndex(mut); err == nil {
		t.Fatal("oversized trailer length accepted")
	}
	// A tiny fabricated trailer claiming 2^60 blocks.
	hostile := append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}, make([]byte, 16)...)
	hostile = append(hostile, []byte{0, 0, 0, 0}...) // bogus CRC, will be refused
	hostile = append(hostile, byte(len(hostile)), 0, 0, 0)
	hostile = append(hostile, segIndexMagic...)
	if _, _, err := parseSegmentIndex(hostile); err == nil {
		t.Fatal("hostile block count accepted")
	}
}

func FuzzParseSegmentIndex(f *testing.F) {
	evs := segEvents(32, 1)
	indexed, _ := EncodeSegment(nil, evs, 8)
	f.Add(indexed)
	f.Add(indexed[:len(indexed)-segIndexFooterLen])
	f.Add([]byte(segIndexMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		metas, dict, err := parseSegmentIndex(data)
		if err != nil {
			return
		}
		if len(dict) == 0 {
			t.Fatal("indexed parse returned an empty dictionary")
		}
		// A parse that succeeds must describe in-bounds, contiguous blocks;
		// decoding through it must never over-read (slicing would panic).
		off := 0
		for _, m := range metas {
			if m.Off != off || m.Len < 5 || m.Off+m.Len > len(data) {
				t.Fatalf("index meta out of bounds: %+v in %d bytes", m, len(data))
			}
			off = m.Off + m.Len
			_, _ = decodeIndexedBlock(data[m.Off:m.Off+m.Len], "dev-a", dict, m.MinNanos, nil)
		}
	})
}

// FuzzDecodeSegment: neither decoder panics or over-reads whatever the
// bytes claim, and the record decode, its AP ordinals mapped back through
// the dictionary it assigned them from, equals the reference event decode —
// the same events, or the same refusal.
func FuzzDecodeSegment(f *testing.F) {
	evs := segEvents(24, 2)
	indexed, _ := EncodeSegment(nil, evs, 6)
	f.Add(indexed)
	f.Add(indexed[:len(indexed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := DecodeSegment(data, "dev-a", nil)
		var dict apDict
		recs, err := DecodeSegmentRecs(data, nil, dict.ord)
		if (err == nil) != (werr == nil) {
			t.Fatalf("record decode err %v, event decode err %v", err, werr)
		}
		if err != nil {
			return
		}
		sameEvents(t, dict.events("dev-a", recs), want)
	})
}

// apDict is a test AP dictionary: ord assigns ordinals in first-seen order.
type apDict struct {
	ids []space.APID
	idx map[space.APID]uint32
}

func (d *apDict) ord(ap space.APID) (uint32, error) {
	if d.idx == nil {
		d.idx = make(map[space.APID]uint32)
	}
	o, ok := d.idx[ap]
	if !ok {
		o = uint32(len(d.ids))
		d.ids = append(d.ids, ap)
		d.idx[ap] = o
	}
	return o, nil
}

// events expands records of device dev through the dictionary.
func (d *apDict) events(dev event.DeviceID, recs []event.Rec) []event.Event {
	out := make([]event.Event, len(recs))
	for i, r := range recs {
		out[i] = r.Event(dev, d.ids)
	}
	return out
}

// recsOf converts events to records, assigning AP ordinals in d.
func (d *apDict) recsOf(evs []event.Event) []event.Rec {
	out := make([]event.Rec, len(evs))
	for i, e := range evs {
		o, _ := d.ord(e.AP)
		out[i] = event.Rec{Nanos: e.Time.UnixNano(), ID: e.ID, AP: o}
	}
	return out
}

// TestEncodeSegmentRecsMatchesReference: the record encoder writes the
// reference encoder's bytes and block index exactly — also when the
// caller's AP ordinals run in a different order than the segment's first
// appearances — and its payload decodes back to the same records.
func TestEncodeSegmentRecsMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 200} {
		for _, blockEvents := range []int{-1, 0, 1, 3, 64, 1000} {
			evs := segEvents(n, int64(n*1000+blockEvents))
			var dict apDict
			// Seed the dictionary out of first-appearance order, with an AP
			// the segment never uses.
			for _, ap := range []space.APID{"unused", "ap-3", "ap-2", "ap-1"} {
				dict.ord(ap)
			}
			recs := dict.recsOf(evs)
			want, wantMetas := EncodeSegment(nil, evs, blockEvents)
			got, metas := EncodeSegmentRecs(nil, recs, dict.ids, blockEvents)
			if string(got) != string(want) {
				t.Fatalf("n=%d be=%d: record payload differs from the reference (%d vs %d bytes)", n, blockEvents, len(got), len(want))
			}
			if !reflect.DeepEqual(metas, wantMetas) {
				t.Fatalf("n=%d be=%d: block index %+v, reference %+v", n, blockEvents, metas, wantMetas)
			}
			back, err := DecodeSegmentRecs(got, nil, dict.ord)
			if err != nil {
				t.Fatalf("n=%d be=%d: DecodeSegmentRecs: %v", n, blockEvents, err)
			}
			if !reflect.DeepEqual(back, recs) {
				t.Fatalf("n=%d be=%d: records did not round-trip", n, blockEvents)
			}
		}
	}
	// An error from the ordinal mapping refuses the payload.
	payload, _ := EncodeSegment(nil, segEvents(8, 1), 0)
	refuse := func(space.APID) (uint32, error) { return 0, errors.New("unknown AP") }
	if _, err := DecodeSegmentRecs(payload, nil, refuse); err == nil {
		t.Fatal("payload decoded although its APs could not be mapped")
	}
}

// TestDecodeEventBlockHostileHeaders hand-crafts event blocks whose CRC is
// valid but whose contents lie: implausible counts, AP indexes out of the
// segment dictionary, truncated varint streams, and trailing garbage. Each
// must be refused with an error — a valid checksum over hostile bytes is
// not a licence to decode.
func TestDecodeEventBlockHostileHeaders(t *testing.T) {
	seal := func(body []byte) []byte {
		crc := crc32.Checksum(body, castagnoli)
		return binary.LittleEndian.AppendUint32(body, crc)
	}
	payload, metas := EncodeSegment(nil, segEvents(2, 3), 0)
	block := payload[:metas[0].Len]
	_, dict, err := parseSegmentIndex(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeIndexedBlock(block, "dev-a", dict, 0, nil); err != nil {
		t.Fatalf("untouched block refused: %v", err)
	}
	cases := map[string][]byte{
		"zero count":         seal(binary.AppendUvarint(nil, 0)),
		"count exceeds body": seal(binary.AppendUvarint(nil, 1<<40)),
		// count=3, then only one complete event record.
		"truncated varints":     seal(append(binary.AppendUvarint(nil, 3), 0, 0, 2)),
		"ap index out of range": seal(append(binary.AppendUvarint(nil, 1), 7, 0, 2)),
		"trailing bytes":        seal(append(append([]byte(nil), block[:len(block)-4]...), 0xEE)),
	}
	for name, block := range cases {
		if _, err := decodeIndexedBlock(block, "dev-a", dict, 0, nil); err == nil {
			t.Errorf("%s: hostile block decoded without error", name)
		}
	}
}

// Package wal implements LOCATER's durability subsystem: an append-only,
// segmented, CRC-checksummed write-ahead log with periodic snapshots and
// crash recovery. The store's in-memory engine stays the source of truth for
// queries; the WAL records every acknowledged mutation (ingested events,
// per-device validity intervals δ, crowd-sourced room labels) so a restart —
// clean or not — rebuilds exactly the acknowledged state.
//
// On disk a WAL directory holds numbered segment files (`wal-<firstLSN>.seg`)
// and snapshot files (`snap-<lsn>.snap`). Every record carries a CRC-32C
// checksum; every record has an implicit log sequence number (LSN), the
// position in the global append order. A snapshot captures the full
// materialized state as of an LSN; recovery loads the newest valid snapshot
// and replays the segments' records with larger LSNs, truncating a torn
// final record left by a crash mid-write.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// Record kinds. The kind byte leads every record payload.
const (
	recEvent byte = 1 // one acknowledged connectivity event
	recDelta byte = 2 // a per-device validity interval δ(d)
	recLabel byte = 3 // a crowd-sourced room label
)

// record is one decoded WAL record.
type record struct {
	kind byte

	ev event.Event // recEvent

	dev   event.DeviceID // recDelta, recLabel
	delta time.Duration  // recDelta
	room  space.RoomID   // recLabel
	at    time.Time      // recLabel
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeEvent appends an event record payload to b.
func encodeEvent(b []byte, e event.Event) []byte {
	b = append(b, recEvent)
	b = binary.AppendVarint(b, e.ID)
	b = appendString(b, string(e.Device))
	b = binary.AppendVarint(b, e.Time.UnixNano())
	b = appendString(b, string(e.AP))
	return b
}

// encodeDelta appends a δ record payload to b.
func encodeDelta(b []byte, d event.DeviceID, delta time.Duration) []byte {
	b = append(b, recDelta)
	b = appendString(b, string(d))
	b = binary.AppendVarint(b, int64(delta))
	return b
}

// encodeLabel appends a room-label record payload to b.
func encodeLabel(b []byte, d event.DeviceID, r space.RoomID, t time.Time) []byte {
	b = append(b, recLabel)
	b = appendString(b, string(d))
	b = appendString(b, string(r))
	b = binary.AppendVarint(b, t.UnixNano())
	return b
}

// decoder is a cursor over an encoded payload with sticky error handling.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated or malformed %s at offset %d", what, d.off)
	}
}

func (d *decoder) byte_() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("string")
		return ""
	}
	v := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return v
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

// SegmentMeta describes one sealed, immutable event segment without decoding
// it: enough for the store to prune segment page-ins by time window and for
// the snapshot manifest to restore a device's segment list after a restart.
type SegmentMeta struct {
	// Seq is the segment's per-device sequence number (1-based, dense in
	// seal order). (Device, Seq) keys the payload in the SegmentBackend.
	Seq uint64
	// Count is the number of events in the block.
	Count int
	// MinNanos/MaxNanos bound the block's event times (inclusive).
	MinNanos int64
	MaxNanos int64
	// Bytes is the encoded payload size including the CRC trailer.
	Bytes int
}

// --- Block-indexed segment payloads ------------------------------------------
//
// A sealed segment is one device's sorted run of events in compressed
// columnar form. WiFi connectivity logs are highly redundant — a device
// re-associates with a handful of APs and timestamps are near-monotone with
// regular spacing — so the payload dictionary-encodes AP IDs and stores
// timestamps as delta-of-delta varints, which are near zero for periodic
// beacons. The device ID is not stored: segments are keyed by device, so the
// caller supplies it at decode time. The payload is a run of consecutive
// dictionary-relative blocks followed by a trailer that indexes them:
//
//	block[0] block[1] ... block[k-1]
//	trailer body:
//	    uvarint k
//	    per block: uvarint len, uvarint count,
//	               varint minNanos (first absolute, then delta from the
//	               previous block's min)
//	    varint lastSpan (final block's maxNanos - minNanos)
//	    uvarint nAPs, then nAPs length-prefixed AP strings — the segment
//	    dictionary shared by every block
//	4-byte LE CRC-32C over the trailer body
//	4-byte LE trailer length (body + CRC)
//	4-byte magic "LSIX"
//
// Only block minima are stored: blocks partition a sorted run, so block i's
// true maximum is bounded by block i+1's minimum, and parseSegmentIndex
// reports exactly that as MaxNanos — a tight conservative bound that prunes
// just as well while costing zero trailer bytes. Only the final block,
// which has no successor, carries its span explicitly, so its MaxNanos (the
// segment's own maximum) is exact.
//
// Each block is: uvarint count, then per event (uvarint AP index into the
// segment dictionary; varint time as a delta-of-delta chain seeded from the
// index's minNanos for that block; varint ID delta), then a 4-byte LE
// CRC-32C over everything before it. Blocks carry no dictionary and no
// absolute timestamp of their own — both live in the trailer, parsed once
// and shared — so no block repeats state the whole segment has in common.
//
// Block offsets are implicit (blocks are contiguous from offset 0), so the
// trailer costs ~10 bytes per block. A reader (DecodeSegmentRecs, or the
// reference DecodeSegment) parses the trailer and then decodes every block in
// order. Each block verifies its
// own CRC before any field is parsed, so a truncated or bit-flipped payload
// is refused and a decoder can never over-read the payload slice it was
// handed.
//
// A payload without the trailer magic is the retired un-indexed format (one
// self-contained block for the whole segment). It is refused with an error
// wrapping ErrRetiredFormat rather than decoded.

// ErrRetiredFormat is wrapped by the error for a file in an on-disk format
// this version no longer reads: a format-v1 ("LOCSNAP1") snapshot or an
// un-indexed segment payload. Builds up to and including commit a8b970d
// read both.
var ErrRetiredFormat = errors.New("retired on-disk format, last read by commit a8b970d")

// segIndexMagic terminates every block-indexed segment payload.
const segIndexMagic = "LSIX"

// segIndexFooterLen is the fixed footer: trailer length + magic.
const segIndexFooterLen = 8

// BlockMeta describes one event block inside a sealed segment payload:
// where it lives, how many events it holds, and the time range it covers.
type BlockMeta struct {
	// Off/Len locate the block's bytes (CRC trailer included) within the
	// segment payload.
	Off, Len int
	// Count is the number of events in the block.
	Count int
	// MinNanos/MaxNanos bound the block's event times (inclusive). Blocks
	// are consecutive ranges of the segment's sorted events, so MinNanos is
	// non-decreasing across the index. MinNanos is always an exact event
	// time (the block's first); MaxNanos is exact only for a segment's final
	// block — earlier blocks report their successor's MinNanos, a tight
	// upper bound that need not be one of the block's own event times.
	MinNanos, MaxNanos int64
}

// EncodeSegmentRecs appends the block-indexed encoding of recs to dst: the
// records split into consecutive dictionary-relative blocks of at most
// blockEvents each (blockEvents <= 0 or >= len(recs) yields a single
// block), followed by the indexed trailer carrying the block index and the
// segment-wide AP dictionary. recs[i].AP names aps[recs[i].AP]; the segment
// dictionary lists the APs the segment uses in first-appearance order, so
// the payload is byte-identical to EncodeSegment's over the same events.
// Returns the extended slice and the block index (offsets relative to the
// start of this segment's payload). recs must be non-empty and sorted, all
// of one device.
func EncodeSegmentRecs(dst []byte, recs []event.Rec, aps []space.APID, blockEvents int) ([]byte, []BlockMeta) {
	if blockEvents <= 0 || blockEvents > len(recs) {
		blockEvents = len(recs)
	}
	segIdx := make(map[uint32]uint64, 8)
	order := make([]space.APID, 0, 8)
	for i := range recs {
		if _, ok := segIdx[recs[i].AP]; !ok {
			segIdx[recs[i].AP] = uint64(len(order))
			order = append(order, aps[recs[i].AP])
		}
	}
	start := len(dst)
	metas := make([]BlockMeta, 0, (len(recs)+blockEvents-1)/blockEvents)
	for lo := 0; lo < len(recs); lo += blockEvents {
		hi := min(lo+blockEvents, len(recs))
		off := len(dst) - start
		dst = encodeRecBlock(dst, recs[lo:hi], segIdx)
		metas = append(metas, BlockMeta{
			Off:      off,
			Len:      len(dst) - start - off,
			Count:    hi - lo,
			MinNanos: recs[lo].Nanos,
			MaxNanos: recs[hi-1].Nanos,
		})
	}
	return appendSegmentTrailer(dst, metas, order), metas
}

// encodeRecBlock appends one dictionary-relative block: count, then per
// record (AP index, delta-of-delta time, ID delta), then the block CRC. The
// time chain is seeded from the block's first record — whose absolute time
// the index trailer records as the block's minNanos — so the block itself
// stores only small deltas.
func encodeRecBlock(dst []byte, recs []event.Rec, segIdx map[uint32]uint64) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	var prevT, prevDelta, prevID int64
	for i, r := range recs {
		dst = binary.AppendUvarint(dst, segIdx[r.AP])
		if i == 0 {
			// The absolute time lives in the index; in-block it is the
			// chain seed, always encoding as zero.
			dst = binary.AppendVarint(dst, 0)
			dst = binary.AppendVarint(dst, r.ID)
		} else {
			d := r.Nanos - prevT
			dst = binary.AppendVarint(dst, d-prevDelta)
			dst = binary.AppendVarint(dst, r.ID-prevID)
			prevDelta = d
		}
		prevT, prevID = r.Nanos, r.ID
	}
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// appendSegmentTrailer appends the index trailer over the blocks just
// written — block lengths, counts and minima, the final block's span, the
// segment dictionary — then its CRC and the footer. Non-final maxes are not
// encoded; the metas are set to the same conservative bound the parser
// reconstructs (the next block's min), so encoder-returned and parsed
// indexes agree exactly.
func appendSegmentTrailer(dst []byte, metas []BlockMeta, order []space.APID) []byte {
	for i := range metas[:len(metas)-1] {
		metas[i].MaxNanos = metas[i+1].MinNanos
	}
	trailerStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(metas)))
	prevMin := int64(0)
	for i, m := range metas {
		dst = binary.AppendUvarint(dst, uint64(m.Len))
		dst = binary.AppendUvarint(dst, uint64(m.Count))
		if i == 0 {
			dst = binary.AppendVarint(dst, m.MinNanos)
		} else {
			dst = binary.AppendVarint(dst, m.MinNanos-prevMin)
		}
		prevMin = m.MinNanos
	}
	last := metas[len(metas)-1]
	dst = binary.AppendVarint(dst, last.MaxNanos-last.MinNanos)
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, ap := range order {
		dst = appendString(dst, string(ap))
	}
	crc := crc32.Checksum(dst[trailerStart:], castagnoli)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	trailerLen := len(dst) - trailerStart
	dst = binary.LittleEndian.AppendUint32(dst, uint32(trailerLen))
	return append(dst, segIndexMagic...)
}

// EncodeSegment is the event-form reference encoder: EncodeSegmentRecs over
// events instead of records, written independently of it. The store writes
// through the record form; this one stays so tests can check that the two
// produce the same bytes, and so tools can encode plain events.
func EncodeSegment(dst []byte, evs []event.Event, blockEvents int) ([]byte, []BlockMeta) {
	if blockEvents <= 0 || blockEvents > len(evs) {
		blockEvents = len(evs)
	}
	apIdx := make(map[space.APID]uint64, 8)
	order := make([]space.APID, 0, 8)
	for i := range evs {
		if _, ok := apIdx[evs[i].AP]; !ok {
			apIdx[evs[i].AP] = uint64(len(order))
			order = append(order, evs[i].AP)
		}
	}
	start := len(dst)
	nBlocks := (len(evs) + blockEvents - 1) / blockEvents
	metas := make([]BlockMeta, 0, nBlocks)
	for lo := 0; lo < len(evs); lo += blockEvents {
		hi := lo + blockEvents
		if hi > len(evs) {
			hi = len(evs)
		}
		off := len(dst) - start
		dst = encodeDictBlock(dst, evs[lo:hi], apIdx)
		metas = append(metas, BlockMeta{
			Off:      off,
			Len:      len(dst) - start - off,
			Count:    hi - lo,
			MinNanos: evs[lo].Time.UnixNano(),
			MaxNanos: evs[hi-1].Time.UnixNano(),
		})
	}
	return appendSegmentTrailer(dst, metas, order), metas
}

// encodeDictBlock appends one dictionary-relative block: count, then per
// event (AP index, delta-of-delta time, ID delta), then the block CRC. The
// time chain is seeded from the block's first event — whose absolute time
// the index trailer records as the block's minNanos — so the block itself
// stores only small deltas.
func encodeDictBlock(dst []byte, evs []event.Event, apIdx map[space.APID]uint64) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	var prevT, prevDelta, prevID int64
	for i := range evs {
		dst = binary.AppendUvarint(dst, apIdx[evs[i].AP])
		t := evs[i].Time.UnixNano()
		if i == 0 {
			// The absolute time lives in the index; in-block it is the
			// chain seed, always encoding as zero.
			dst = binary.AppendVarint(dst, 0)
			dst = binary.AppendVarint(dst, evs[i].ID)
		} else {
			d := t - prevT
			dst = binary.AppendVarint(dst, d-prevDelta)
			dst = binary.AppendVarint(dst, evs[i].ID-prevID)
			prevDelta = d
		}
		prevT = t
		prevID = evs[i].ID
	}
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// decodeIndexedBlock verifies and decodes one dictionary-relative block of
// an indexed segment payload, appending its events for device dev to dst.
// dict is the segment dictionary and minNanos the block's index-recorded
// first-event time, both from parseSegmentIndex. The CRC is checked before
// any field is parsed; on error dst must be discarded by the caller.
func decodeIndexedBlock(block []byte, dev event.DeviceID, dict []space.APID, minNanos int64, dst []event.Event) ([]event.Event, error) {
	if len(block) < 4 {
		return dst, fmt.Errorf("wal: indexed block too short (%d bytes)", len(block))
	}
	body := block[:len(block)-4]
	want := binary.LittleEndian.Uint32(block[len(block)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return dst, fmt.Errorf("wal: indexed block CRC mismatch (got %08x, want %08x)", got, want)
	}
	d := &decoder{b: body}
	count := d.uvarint()
	if d.err != nil {
		return dst, d.err
	}
	if count == 0 || count > uint64(len(body)) {
		return dst, fmt.Errorf("wal: indexed block count %d implausible (%d body bytes)", count, len(body))
	}
	var prevT, prevDelta, prevID int64
	for i := uint64(0); i < count; i++ {
		ai := d.uvarint()
		dd := d.varint()
		di := d.varint()
		if d.err != nil {
			return dst, d.err
		}
		if ai >= uint64(len(dict)) {
			return dst, fmt.Errorf("wal: indexed block AP index %d out of range (%d dictionary entries)", ai, len(dict))
		}
		var t, id int64
		if i == 0 {
			t, id = minNanos+dd, di
		} else {
			prevDelta += dd
			t = prevT + prevDelta
			id = prevID + di
		}
		prevT, prevID = t, id
		dst = append(dst, event.Event{
			ID:     id,
			Device: dev,
			Time:   time.Unix(0, t).UTC(),
			AP:     dict[ai],
		})
	}
	if d.remaining() != 0 {
		return dst, fmt.Errorf("wal: %d trailing bytes after indexed block", d.remaining())
	}
	return dst, nil
}

// parseSegmentIndex parses a segment payload's block index and segment
// dictionary. A payload without the trailer magic is the retired un-indexed
// format and is refused with an error wrapping ErrRetiredFormat; a payload
// whose trailer fails validation is corrupt. Either way nothing is decoded.
// The returned metas reference only byte ranges inside the blocks region,
// so decoding through them can never over-read the payload.
func parseSegmentIndex(payload []byte) (metas []BlockMeta, dict []space.APID, err error) {
	n := len(payload)
	if n < segIndexFooterLen || string(payload[n-4:]) != segIndexMagic {
		return nil, nil, fmt.Errorf("wal: segment payload has no block index: %w", ErrRetiredFormat)
	}
	trailerLen := int(binary.LittleEndian.Uint32(payload[n-8 : n-4]))
	if trailerLen < 5 || trailerLen > n-segIndexFooterLen {
		return nil, nil, fmt.Errorf("wal: segment index trailer length %d out of range (payload %d bytes)", trailerLen, n)
	}
	trailer := payload[n-segIndexFooterLen-trailerLen : n-segIndexFooterLen]
	body := trailer[:len(trailer)-4]
	want := binary.LittleEndian.Uint32(trailer[len(trailer)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, nil, fmt.Errorf("wal: segment index CRC mismatch (got %08x, want %08x)", got, want)
	}
	blocksLen := n - segIndexFooterLen - trailerLen
	d := &decoder{b: body}
	k := d.uvarint()
	if d.err != nil {
		return nil, nil, d.err
	}
	if k == 0 || k > uint64(len(body)) {
		return nil, nil, fmt.Errorf("wal: segment index block count %d implausible (trailer %d bytes)", k, len(body))
	}
	metas = make([]BlockMeta, 0, k)
	off := 0
	total := uint64(0)
	prevMin := int64(0)
	for i := uint64(0); i < k; i++ {
		blen := d.uvarint()
		count := d.uvarint()
		dmin := d.varint()
		if d.err != nil {
			return nil, nil, d.err
		}
		if blen < 5 || blen > uint64(blocksLen-off) {
			return nil, nil, fmt.Errorf("wal: segment index block %d length %d out of range", i, blen)
		}
		if count == 0 || count > blen {
			return nil, nil, fmt.Errorf("wal: segment index block %d count %d implausible (%d bytes)", i, count, blen)
		}
		min := prevMin + dmin
		if i == 0 {
			min = dmin
		} else if dmin < 0 {
			return nil, nil, fmt.Errorf("wal: segment index block %d out of order (min delta %d)", i, dmin)
		}
		metas = append(metas, BlockMeta{Off: off, Len: int(blen), Count: int(count), MinNanos: min})
		off += int(blen)
		total += count
		prevMin = min
	}
	// Reconstruct the time upper bounds: each non-final block is capped by its
	// successor's min (blocks partition a sorted run); the final block's exact
	// span is encoded.
	lastSpan := d.varint()
	if d.err != nil {
		return nil, nil, d.err
	}
	if lastSpan < 0 {
		return nil, nil, fmt.Errorf("wal: segment index final block has max before min")
	}
	for i := range metas[:len(metas)-1] {
		metas[i].MaxNanos = metas[i+1].MinNanos
	}
	metas[len(metas)-1].MaxNanos = metas[len(metas)-1].MinNanos + lastSpan
	nAPs := d.uvarint()
	if d.err != nil {
		return nil, nil, d.err
	}
	if nAPs == 0 || nAPs > total {
		return nil, nil, fmt.Errorf("wal: segment dictionary has %d APs for %d events", nAPs, total)
	}
	dict = make([]space.APID, nAPs)
	for i := range dict {
		dict[i] = space.APID(d.str())
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.remaining() != 0 {
		return nil, nil, fmt.Errorf("wal: %d trailing bytes in segment index", d.remaining())
	}
	if off != blocksLen {
		return nil, nil, fmt.Errorf("wal: segment index covers %d block bytes, payload has %d", off, blocksLen)
	}
	return metas, dict, nil
}

// DecodeSegmentRecs decodes a full segment payload, appending its records
// to dst. ord maps an AP of the segment's dictionary to the caller's
// ordinal; it is called once per dictionary entry, not per event, so the
// decode makes no per-event string, and an error from it refuses the
// payload. Each block's CRC is verified before its fields are parsed; on
// error dst must be discarded by the caller.
func DecodeSegmentRecs(payload []byte, dst []event.Rec, ord func(space.APID) (uint32, error)) ([]event.Rec, error) {
	metas, dict, err := parseSegmentIndex(payload)
	if err != nil {
		return dst, err
	}
	var small [16]uint32
	ords := small[:0]
	for _, ap := range dict {
		o, err := ord(ap)
		if err != nil {
			return dst, err
		}
		ords = append(ords, o)
	}
	for _, m := range metas {
		dst, err = decodeRecBlock(payload[m.Off:m.Off+m.Len], ords, m.MinNanos, dst)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decodeRecBlock verifies and decodes one dictionary-relative block of an
// indexed segment payload, appending its records to dst with each AP index
// mapped through ords (the segment dictionary as the caller's ordinals).
// minNanos is the block's index-recorded first-event time. The CRC is
// checked before any field is parsed.
func decodeRecBlock(block []byte, ords []uint32, minNanos int64, dst []event.Rec) ([]event.Rec, error) {
	if len(block) < 4 {
		return dst, fmt.Errorf("wal: indexed block too short (%d bytes)", len(block))
	}
	body := block[:len(block)-4]
	want := binary.LittleEndian.Uint32(block[len(block)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return dst, fmt.Errorf("wal: indexed block CRC mismatch (got %08x, want %08x)", got, want)
	}
	d := &decoder{b: body}
	count := d.uvarint()
	if d.err != nil {
		return dst, d.err
	}
	if count == 0 || count > uint64(len(body)) {
		return dst, fmt.Errorf("wal: indexed block count %d implausible (%d body bytes)", count, len(body))
	}
	var prevT, prevDelta, prevID int64
	for i := uint64(0); i < count; i++ {
		ai := d.uvarint()
		dd := d.varint()
		di := d.varint()
		if d.err != nil {
			return dst, d.err
		}
		if ai >= uint64(len(ords)) {
			return dst, fmt.Errorf("wal: indexed block AP index %d out of range (%d dictionary entries)", ai, len(ords))
		}
		var t, id int64
		if i == 0 {
			t, id = minNanos+dd, di
		} else {
			prevDelta += dd
			t = prevT + prevDelta
			id = prevID + di
		}
		prevT, prevID = t, id
		dst = append(dst, event.Rec{Nanos: t, ID: id, AP: ords[ai]})
	}
	if d.remaining() != 0 {
		return dst, fmt.Errorf("wal: %d trailing bytes after indexed block", d.remaining())
	}
	return dst, nil
}

// DecodeSegment is the event-form reference decoder: it decodes a full
// segment payload into events of device dev, appending them to dst, written
// independently of DecodeSegmentRecs. The store reads through the record
// form; this one stays as the oracle the record decode is tested against.
// Each block's CRC is verified before its fields are parsed.
func DecodeSegment(payload []byte, dev event.DeviceID, dst []event.Event) ([]event.Event, error) {
	metas, dict, err := parseSegmentIndex(payload)
	if err != nil {
		return dst, err
	}
	for _, m := range metas {
		dst, err = decodeIndexedBlock(payload[m.Off:m.Off+m.Len], dev, dict, m.MinNanos, dst)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decodeRecord parses one record payload. Every byte must be consumed; a
// short or over-long payload is malformed.
func decodeRecord(payload []byte) (record, error) {
	d := &decoder{b: payload}
	var r record
	r.kind = d.byte_()
	switch r.kind {
	case recEvent:
		r.ev.ID = d.varint()
		r.ev.Device = event.DeviceID(d.str())
		r.ev.Time = time.Unix(0, d.varint()).UTC()
		r.ev.AP = space.APID(d.str())
	case recDelta:
		r.dev = event.DeviceID(d.str())
		r.delta = time.Duration(d.varint())
	case recLabel:
		r.dev = event.DeviceID(d.str())
		r.room = space.RoomID(d.str())
		r.at = time.Unix(0, d.varint()).UTC()
	default:
		if d.err == nil {
			return record{}, fmt.Errorf("wal: unknown record kind %d", r.kind)
		}
	}
	if d.err != nil {
		return record{}, d.err
	}
	if d.remaining() != 0 {
		return record{}, fmt.Errorf("wal: %d trailing bytes after record kind %d", d.remaining(), r.kind)
	}
	return r, nil
}

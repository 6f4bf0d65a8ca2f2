package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

const (
	segMagic     = "LOCWAL1\n"
	segHeaderLen = 16 // magic + little-endian first LSN
	frameHdrLen  = 8  // little-endian payload length + CRC-32C

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	// DefaultSegmentSize is the rotation threshold when Options.SegmentSize
	// is zero: large enough that steady ingest rarely rotates, small enough
	// that compaction after a snapshot reclaims space promptly.
	DefaultSegmentSize = 64 << 20

	// writerBufSize is the in-process buffer in front of the segment file.
	// Appends only copy into it; a flush (commit, rotation, close) moves the
	// buffered frames to the OS in one write.
	writerBufSize = 256 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// Options configures a WAL.
type Options struct {
	// Fsync makes Commit block until every record appended so far is on
	// stable storage. Commits are grouped: one fsync covers all appends
	// since the previous sync, so concurrent committers share the cost.
	// Without Fsync, Commit only flushes to the OS (data survives a process
	// crash but not a machine crash).
	Fsync bool
	// SegmentSize is the segment rotation threshold in bytes.
	// DefaultSegmentSize when zero or negative.
	SegmentSize int64
}

// segmentInfo describes a sealed (no longer written) segment. lastLSN is
// firstLSN-1 for a segment holding no records.
type segmentInfo struct {
	path     string
	firstLSN uint64
	lastLSN  uint64
}

// WAL is an append-only, segmented, CRC-checksummed write-ahead log. It is
// safe for concurrent use: appends serialize on an internal mutex (they only
// copy into a buffer), and durability waits ride a shared group commit.
type WAL struct {
	dir  string
	opts Options

	// mu guards the append path: active segment, buffer, LSN counter,
	// sealed-segment list.
	mu          sync.Mutex
	f           *os.File
	bw          *bufio.Writer
	size        int64 // bytes written to the active segment, header included
	activeFirst uint64
	nextLSN     uint64 // LSN the next appended record receives
	sealed      []segmentInfo
	failed      error // sticky: a write/sync error poisons the WAL
	closed      bool

	// Group commit state. A committer whose records are not yet durable
	// either becomes the leader (runs one flush+fsync covering everything
	// appended so far) or waits for the current leader's round.
	syncMu  sync.Mutex
	syncing bool
	durable uint64 // highest LSN known to be on stable storage
	syncCh  chan struct{}

	// snapMu serializes snapshot writing + compaction.
	snapMu sync.Mutex
}

// Recovered is the state rebuilt by Open: the newest valid snapshot plus the
// WAL tail replayed over it.
type Recovered struct {
	// NextID is the store's persisted event-ID counter: recovered stores
	// must never reissue an ID, even when the counter ran ahead of the
	// highest stored event ID.
	NextID int64
	// Events are the recovered connectivity events (snapshot events grouped
	// per device, then the WAL tail in log order).
	Events []event.Event
	// Deltas are the per-device validity intervals δ(d).
	Deltas map[event.DeviceID]time.Duration
	// Labels are the crowd-sourced room-label counts.
	Labels map[event.DeviceID]map[space.RoomID]int
	// Segments is the sealed-segment manifest from the snapshot (nil when
	// there is none): per-device metadata for the
	// segments whose payloads live in the store's segment backend. Events
	// then holds only the mutable heads plus the WAL tail — recovery
	// registers the manifest without re-decoding any sealed segment.
	Segments map[event.DeviceID][]SegmentMeta
	// SnapshotLSN is the LSN of the snapshot recovery started from (0 if
	// none); LastLSN is the position of the last valid record replayed.
	SnapshotLSN uint64
	LastLSN     uint64
}

func newRecovered() *Recovered {
	return &Recovered{
		NextID: 1,
		Deltas: make(map[event.DeviceID]time.Duration),
		Labels: make(map[event.DeviceID]map[space.RoomID]int),
	}
}

func (r *Recovered) apply(rec record) {
	switch rec.kind {
	case recEvent:
		r.Events = append(r.Events, rec.ev)
		if rec.ev.ID >= r.NextID {
			r.NextID = rec.ev.ID + 1
		}
	case recDelta:
		r.Deltas[rec.dev] = rec.delta
	case recLabel:
		m := r.Labels[rec.dev]
		if m == nil {
			m = make(map[space.RoomID]int)
			r.Labels[rec.dev] = m
		}
		m[rec.room]++
	}
}

// Open opens (or creates) a WAL directory, recovers its state, and returns
// the log positioned for appending. Recovery loads the newest valid snapshot
// and replays every later record; a torn final record — a crash mid-append —
// is truncated away. A checksum failure anywhere else is surfaced as an
// error rather than silently dropping acknowledged data.
func Open(dir string, opts Options) (*WAL, *Recovered, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}

	rec := newRecovered()
	snapLSN, err := loadNewestSnapshot(dir, rec)
	if err != nil {
		return nil, nil, err
	}
	rec.SnapshotLSN = snapLSN
	rec.LastLSN = snapLSN

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}

	w := &WAL{
		dir:    dir,
		opts:   opts,
		syncCh: make(chan struct{}),
	}

	// expected is the next LSN the recovered state needs data for: records
	// below it are covered by the snapshot or already-replayed segments.
	expected := snapLSN + 1
	var lastActive uint64
	var activeSize int64
	for i, seg := range segs {
		if seg.firstLSN > expected {
			return nil, nil, fmt.Errorf("wal: gap in log: segment %s starts at LSN %d, want ≤ %d (missing segment or stale snapshot)",
				filepath.Base(seg.path), seg.firstLSN, expected)
		}
		isLast := i == len(segs)-1
		last, size, err := replaySegment(seg, snapLSN, rec, isLast)
		if err != nil {
			return nil, nil, err
		}
		if last+1 > expected {
			expected = last + 1
		}
		if isLast {
			lastActive, activeSize = last, size
		} else {
			w.sealed = append(w.sealed, segmentInfo{path: seg.path, firstLSN: seg.firstLSN, lastLSN: last})
		}
	}
	w.nextLSN = expected
	w.durable = expected - 1 // everything recovered is on disk already
	if rec.LastLSN < expected-1 {
		rec.LastLSN = expected - 1
	}

	switch {
	case len(segs) == 0:
		if err := w.createSegmentLocked(expected); err != nil {
			return nil, nil, err
		}
	case lastActive+1 < expected:
		// The newest segment ends before the recovered position — possible
		// when a non-fsync tail already covered by the snapshot was torn.
		// Appending into it would break the positional LSN numbering, so
		// seal it and start a fresh segment at the recovered position.
		active := segs[len(segs)-1]
		w.sealed = append(w.sealed, segmentInfo{path: active.path, firstLSN: active.firstLSN, lastLSN: expected - 1})
		if err := w.createSegmentLocked(expected); err != nil {
			return nil, nil, err
		}
	default:
		active := segs[len(segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopening active segment: %w", err)
		}
		w.f = f
		w.bw = bufio.NewWriterSize(f, writerBufSize)
		w.size = activeSize
		w.activeFirst = active.firstLSN
	}
	return w, rec, nil
}

// listSegments returns the directory's segment files ordered by first LSN.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unparseable segment name %q", name)
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// replaySegment reads one segment, applying records with LSN > snapLSN to
// rec. For the newest segment a malformed or torn trailing record is
// truncated away — the crash-recovery contract — while corruption anywhere
// else is an error. Returns the last LSN surviving in the file and the
// file's surviving byte size.
func replaySegment(seg segmentInfo, snapLSN uint64, rec *Recovered, isLast bool) (lastLSN uint64, size int64, err error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	if len(data) < segHeaderLen {
		if isLast {
			// A crash can tear the 16-byte header of a just-created
			// segment; reset it to an empty segment.
			if err := os.Truncate(seg.path, 0); err != nil {
				return 0, 0, fmt.Errorf("wal: resetting torn segment header: %w", err)
			}
			if err := writeHeader(seg.path, seg.firstLSN); err != nil {
				return 0, 0, err
			}
			return seg.firstLSN - 1, segHeaderLen, nil
		}
		return 0, 0, fmt.Errorf("wal: segment %s: short header", filepath.Base(seg.path))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, 0, fmt.Errorf("wal: segment %s: bad magic", filepath.Base(seg.path))
	}
	if hdrLSN := binary.LittleEndian.Uint64(data[len(segMagic):segHeaderLen]); hdrLSN != seg.firstLSN {
		return 0, 0, fmt.Errorf("wal: segment %s: header LSN %d does not match file name", filepath.Base(seg.path), hdrLSN)
	}

	truncate := func(off int, cause error) (uint64, int64, error) {
		if !isLast {
			return 0, 0, fmt.Errorf("wal: segment %s: corrupt record at offset %d: %v", filepath.Base(seg.path), off, cause)
		}
		if terr := os.Truncate(seg.path, int64(off)); terr != nil {
			return 0, 0, fmt.Errorf("wal: truncating torn record: %w", terr)
		}
		return lastLSN, int64(off), nil
	}

	lastLSN = seg.firstLSN - 1
	off := segHeaderLen
	for off < len(data) {
		payload, n, ferr := readFrame(data[off:])
		if ferr != nil {
			return truncate(off, ferr)
		}
		if lastLSN+1 > snapLSN {
			r, derr := decodeRecord(payload)
			if derr != nil {
				return truncate(off, derr)
			}
			rec.apply(r)
			rec.LastLSN = lastLSN + 1
		}
		lastLSN++
		off += n
	}
	return lastLSN, int64(len(data)), nil
}

// readFrame parses one length+CRC framed record at the start of b.
func readFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHdrLen {
		return nil, 0, fmt.Errorf("short frame header (%d bytes)", len(b))
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if uint64(len(b)-frameHdrLen) < uint64(plen) {
		return nil, 0, fmt.Errorf("frame length %d exceeds remaining %d bytes", plen, len(b)-frameHdrLen)
	}
	payload = b[frameHdrLen : frameHdrLen+int(plen)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, errors.New("CRC mismatch")
	}
	return payload, frameHdrLen + int(plen), nil
}

// writeHeader writes a segment header at the start of an (empty) file.
func writeHeader(path string, firstLSN uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewriting segment header: %w", err)
	}
	defer f.Close()
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: rewriting segment header: %w", err)
	}
	return nil
}

// createSegmentLocked opens a fresh active segment whose first record will
// have the given LSN. Callers hold w.mu (or own the WAL exclusively during
// Open).
func (w *WAL) createSegmentLocked(firstLSN uint64) error {
	path := filepath.Join(w.dir, fmt.Sprintf("%s%020d%s", segPrefix, firstLSN, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if w.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing segment header: %w", err)
		}
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, writerBufSize)
	w.size = segHeaderLen
	w.activeFirst = firstLSN
	return nil
}

// rotateLocked seals the active segment (flush + sync + close) and opens the
// next one. Callers hold w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flushing segment: %w", err)
	}
	// A sealed segment is always synced, even without Options.Fsync: it will
	// never be written again, so one fsync here makes compaction and
	// recovery reasoning uniform.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment: %w", err)
	}
	path := w.f.Name()
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	w.sealed = append(w.sealed, segmentInfo{path: path, firstLSN: w.activeFirst, lastLSN: w.nextLSN - 1})
	return w.createSegmentLocked(w.nextLSN)
}

// appendPayloads appends framed records and assigns them consecutive LSNs.
// The data lands in the in-process buffer only; call Commit for durability.
func (w *WAL) appendPayloads(payloads [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.failed != nil {
		return w.failed
	}
	for _, p := range payloads {
		if w.size >= w.opts.SegmentSize {
			if err := w.rotateLocked(); err != nil {
				w.failed = err
				return err
			}
		}
		var hdr [frameHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
		if _, err := w.bw.Write(hdr[:]); err != nil {
			w.failed = fmt.Errorf("wal: append: %w", err)
			return w.failed
		}
		if _, err := w.bw.Write(p); err != nil {
			w.failed = fmt.Errorf("wal: append: %w", err)
			return w.failed
		}
		w.size += frameHdrLen + int64(len(p))
		w.nextLSN++
	}
	return nil
}

// AppendEvents logs a batch of acknowledged events (IDs assigned). It only
// buffers; the store calls Commit after releasing its lock so concurrent
// batches share one fsync.
func (w *WAL) AppendEvents(evs []event.Event) error {
	payloads := make([][]byte, len(evs))
	for i, e := range evs {
		payloads[i] = encodeEvent(make([]byte, 0, 24+len(e.Device)+len(e.AP)), e)
	}
	return w.appendPayloads(payloads)
}

// AppendDelta logs a per-device validity interval δ(d).
func (w *WAL) AppendDelta(d event.DeviceID, delta time.Duration) error {
	return w.appendPayloads([][]byte{encodeDelta(make([]byte, 0, 16+len(d)), d, delta)})
}

// AppendLabel logs a crowd-sourced room label.
func (w *WAL) AppendLabel(d event.DeviceID, r space.RoomID, t time.Time) error {
	return w.appendPayloads([][]byte{encodeLabel(make([]byte, 0, 24+len(d)+len(r)), d, r, t)})
}

// Commit makes every record appended so far durable. With Options.Fsync the
// call blocks until an fsync covers the caller's records; concurrent
// committers are grouped under a single fsync (group commit). Without Fsync
// it only flushes the in-process buffer to the OS.
func (w *WAL) Commit() error {
	if !w.opts.Fsync {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.closed {
			return ErrClosed
		}
		if w.failed != nil {
			return w.failed
		}
		if err := w.bw.Flush(); err != nil {
			w.failed = fmt.Errorf("wal: flush: %w", err)
			return w.failed
		}
		return nil
	}

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	target := w.nextLSN - 1
	w.mu.Unlock()
	return w.syncTo(target)
}

// syncTo blocks until all records with LSN ≤ target are on stable storage,
// electing at most one fsync leader at a time.
func (w *WAL) syncTo(target uint64) error {
	w.syncMu.Lock()
	for {
		if w.durable >= target {
			w.syncMu.Unlock()
			return nil
		}
		if !w.syncing {
			w.syncing = true
			w.syncMu.Unlock()

			w.mu.Lock()
			var err error
			var covered uint64
			switch {
			case w.closed:
				err = ErrClosed
			case w.failed != nil:
				err = w.failed
			default:
				covered = w.nextLSN - 1
				if err = w.bw.Flush(); err == nil {
					err = w.f.Sync()
				}
				if err != nil {
					err = fmt.Errorf("wal: sync: %w", err)
					w.failed = err
				}
			}
			w.mu.Unlock()

			w.syncMu.Lock()
			w.syncing = false
			if err == nil && covered > w.durable {
				w.durable = covered
			}
			close(w.syncCh)
			w.syncCh = make(chan struct{})
			if err != nil {
				w.syncMu.Unlock()
				return err
			}
			continue
		}
		ch := w.syncCh
		w.syncMu.Unlock()
		<-ch
		w.syncMu.Lock()
	}
}

// LastLSN returns the LSN of the most recently appended record.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Stats reports the log's shape: segment count (sealed + active), the last
// assigned LSN, and the highest LSN known durable.
func (w *WAL) Stats() (segments int, lastLSN, durableLSN uint64) {
	w.mu.Lock()
	segments = len(w.sealed) + 1
	lastLSN = w.nextLSN - 1
	w.mu.Unlock()
	w.syncMu.Lock()
	durableLSN = w.durable
	w.syncMu.Unlock()
	return segments, lastLSN, durableLSN
}

// Close flushes, syncs, and closes the active segment. Further operations
// return ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.failed == nil {
		if err = w.bw.Flush(); err == nil {
			err = w.f.Sync()
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames/creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	return nil
}

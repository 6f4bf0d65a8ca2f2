package store

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"locater/internal/event"
)

// segKey identifies one sealed segment: segments are per-device and numbered
// densely in seal order.
type segKey struct {
	dev event.DeviceID
	seq uint64
}

// SegmentBackend stores the encoded payloads of sealed, immutable event
// segments, keyed by (device, per-device sequence number). The store seals
// segments under its exclusive lock but pages them back in under the shared
// lock, so implementations must be safe for concurrent use.
//
// Segments are immutable once written, with one exception: crash recovery
// can re-seal a head the previous run had already sealed but not yet
// captured in a snapshot manifest, re-issuing the same (device, seq) with
// identical contents. Put must let the newest write win. Payloads carry
// their own CRC trailers (wal.EncodeSegment), so backends store them
// opaquely and corruption is detected at decode time, not here.
type SegmentBackend interface {
	// Put stores one sealed segment's payload. The slice is not retained.
	Put(d event.DeviceID, seq uint64, payload []byte) error
	// Get returns the payload stored for (d, seq); the caller owns the
	// returned slice.
	Get(d event.DeviceID, seq uint64) ([]byte, error)
	// Sync makes every Put so far durable. A checkpoint calls it before
	// publishing a manifest that references the segments.
	Sync() error
	// Persistent reports whether payloads survive a process restart (a cold
	// tier) or live in memory only (a compressed warm tier).
	Persistent() bool
	// Close releases backend resources; the store issues no calls after it.
	Close() error
}

// ViewBackend is the zero-copy read seam: View lends the caller a read-only
// view of a payload instead of heap-copying it. The slice is valid only for
// the duration of fn and must not be retained, mutated, or leaked — it may
// alias a shared memory mapping whose lifetime the backend manages (the
// mapping is guaranteed to outlive fn via refcounting). The store prefers
// View over Get wherever the payload is only decoded and dropped, which is
// every read path; with the mmap backend that makes sealed history
// OS-page-resident instead of heap-resident.
type ViewBackend interface {
	SegmentBackend
	View(d event.DeviceID, seq uint64, fn func(payload []byte) error) error
}

// LiveSegments names the segment records one device needs to keep through a
// cold-tier rewrite: the seqs referenced by the current store state and
// every retained snapshot manifest, plus a floor — any record with
// seq >= Floor was sealed after the live set was captured (seqs are
// per-device monotone) and is kept unconditionally, so reclamation can run
// concurrently with fresh seals without coordinating with them.
type LiveSegments struct {
	Seqs  []uint64
	Floor uint64
}

// ReclaimableBackend is implemented by backends that can drop dead segment
// records — payloads superseded by a re-seal under the same seq, or
// orphaned by runt-segment compaction under a fresh seq. Reclaim rewrites
// storage keeping only the live records and returns the bytes reclaimed.
// Implementations must be crash-safe: a crash mid-reclaim leaves every live
// record readable.
type ReclaimableBackend interface {
	Reclaim(live map[event.DeviceID]LiveSegments) (reclaimedBytes int64, err error)
}

// BackendStats reports a segment backend's storage-level shape and traffic.
// All fields are zero for backends without the corresponding feature.
type BackendStats struct {
	// MappedFiles / MappedBytes are the live memory-mapped cold-tier files
	// and their total mapped size — bytes resident at the OS's discretion,
	// invisible to the Go heap and the GC. Remaps counts re-mappings after
	// file growth or rewrite.
	MappedFiles int   `json:"mapped_files"`
	MappedBytes int64 `json:"resident_bytes_mmap"`
	Remaps      int64 `json:"remaps"`
	// Rewrites / RewriteFailures / ReclaimedBytes report cold-tier file
	// reclamation (see ReclaimableBackend).
	Rewrites        int64 `json:"rewrites"`
	RewriteFailures int64 `json:"rewrite_failures"`
	ReclaimedBytes  int64 `json:"reclaimed_bytes"`
}

// StatsBackend is implemented by backends that report storage-level
// statistics.
type StatsBackend interface {
	BackendStats() BackendStats
}

// seqLive reports whether a record with the given seq survives a reclaim
// against the device's live set.
func seqLive(seq uint64, ls LiveSegments) bool {
	if seq >= ls.Floor {
		return true
	}
	for _, s := range ls.Seqs {
		if s == seq {
			return true
		}
	}
	return false
}

// memSegmentBackend keeps encoded segments in a map: the compressed warm
// tier used when no cold-tier directory is configured. Even in memory the
// payloads are the columnar encoding, so sealed history costs a few bytes
// per event instead of a 64-byte Event struct.
type memSegmentBackend struct {
	mu   sync.RWMutex
	segs map[segKey][]byte
}

// NewMemorySegmentBackend returns an in-memory SegmentBackend.
func NewMemorySegmentBackend() SegmentBackend {
	return &memSegmentBackend{segs: make(map[segKey][]byte)}
}

func (b *memSegmentBackend) Put(d event.DeviceID, seq uint64, payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	b.mu.Lock()
	b.segs[segKey{d, seq}] = cp
	b.mu.Unlock()
	return nil
}

func (b *memSegmentBackend) Get(d event.DeviceID, seq uint64) ([]byte, error) {
	b.mu.RLock()
	p, ok := b.segs[segKey{d, seq}]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: segment %d for device %s not in memory tier", seq, d)
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	return cp, nil
}

// View lends the stored payload without copying. Put never mutates a
// stored slice in place (a re-seal stores a fresh copy), so the borrowed
// view stays valid for fn even across a concurrent last-wins overwrite.
func (b *memSegmentBackend) View(d event.DeviceID, seq uint64, fn func(payload []byte) error) error {
	b.mu.RLock()
	p, ok := b.segs[segKey{d, seq}]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("store: segment %d for device %s not in memory tier", seq, d)
	}
	return fn(p)
}

// Reclaim drops payloads that are no longer live — for the memory tier,
// the map entries orphaned by runt-segment compaction.
func (b *memSegmentBackend) Reclaim(live map[event.DeviceID]LiveSegments) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	reclaimed := int64(0)
	for k, p := range b.segs {
		ls, ok := live[k.dev]
		if !ok || seqLive(k.seq, ls) {
			continue
		}
		reclaimed += int64(len(p))
		delete(b.segs, k)
	}
	return reclaimed, nil
}

func (b *memSegmentBackend) Sync() error      { return nil }
func (b *memSegmentBackend) Persistent() bool { return false }
func (b *memSegmentBackend) Close() error     { return nil }

// --- Cold tier: per-device segment files -------------------------------------

// segFileMagic leads every segment file. The format is append-only: after
// the magic come records of [seq u64 LE][payload length u32 LE][payload],
// where the payload is a wal.EncodeSegment block-indexed segment.
// A crash can leave a torn final record; the scan on first open truncates
// it, exactly like the WAL's torn-record handling. A duplicate seq — crash
// recovery re-sealing an unmanifested head — appends a second record; the
// scan lets the last one win.
const segFileMagic = "LOCSEG1\n"

// segRecHdrLen is the per-record header: 8-byte seq + 4-byte payload length.
const segRecHdrLen = 12

// segLoc locates one segment payload inside its device file.
type segLoc struct {
	off int64
	n   int
}

// maxMappedFiles bounds how many cold-tier device files the mmap backend
// keeps mapped at once. Fleet-scale stores hold one file per device —
// mapping them all would exhaust the kernel's per-process mapping budget
// (vm.max_map_count) — so mappings are an LRU-bounded working set,
// re-established on demand.
const maxMappedFiles = 512

// reclaimMinDeadBytes / reclaimDeadFraction gate cold-tier file rewrites: a
// file is rewritten only when it carries at least this many dead bytes AND
// the dead share is at least 1/reclaimDeadFraction of the file, so
// reclamation cost is always amortized against real space.
const (
	reclaimMinDeadBytes = 4 << 10
	reclaimDeadFraction = 4
	segTmpSuffix        = ".tmp"
)

// fileMapping is one device file's live memory mapping. refs counts
// borrowed views (View calls in flight); a mapping displaced by growth,
// rewrite, or LRU eviction while borrowed is doomed instead of unmapped and
// released when the last borrower returns, so a view handed to a decoder
// can never be unmapped underneath it.
type fileMapping struct {
	dev        event.DeviceID
	data       []byte
	refs       int
	doomed     bool
	prev, next *fileMapping
}

// diskSegmentBackend spills sealed segments to per-device append-only files
// under dir, fanned out over 256 hash subdirectories so fleet-scale device
// counts don't pile into one directory. Files are opened per operation (no
// resident descriptor per device); the per-device record index is built
// lazily on first access and maintained on Put.
//
// With useMmap set (NewMmapSegmentBackend on a supporting platform), reads
// borrow views of an LRU-bounded set of per-file memory mappings instead of
// heap-copying payloads: sealed history is then resident at the OS's
// discretion — evictable clean pages, not GC-visible heap. Appends go
// through the file descriptor (same page cache, so an existing mapping of
// the file's prefix stays coherent); a read past the mapped prefix remaps
// at the grown size.
type diskSegmentBackend struct {
	dir     string
	useMmap bool

	mu    sync.Mutex
	index map[event.DeviceID]map[uint64]segLoc
	sizes map[event.DeviceID]int64
	// dirty holds device files written since the last Sync; newDirs the
	// directories that gained entries and need a directory fsync.
	dirty   map[string]struct{}
	newDirs map[string]struct{}

	// maps is the LRU-bounded working set of live file mappings
	// (mapHead = most recently used). Counters feed BackendStats.
	maps             map[event.DeviceID]*fileMapping
	mapHead, mapTail *fileMapping
	mappedBytes      int64
	remaps           int64
	rewrites         int64
	rewriteFails     int64
	reclaimedBytes   int64
}

// NewDiskSegmentBackend returns a SegmentBackend storing segments in
// per-device files under dir, creating it if needed. Reads use portable
// positional I/O; see NewMmapSegmentBackend for the memory-mapped variant.
func NewDiskSegmentBackend(dir string) (SegmentBackend, error) {
	return newDiskBackend(dir, false)
}

// NewMmapSegmentBackend returns a cold-tier SegmentBackend that serves
// reads from memory-mapped per-device files where the platform supports it,
// falling back to the portable read-at path where it does not. The two
// variants are bit-for-bit compatible on disk.
func NewMmapSegmentBackend(dir string) (SegmentBackend, error) {
	return newDiskBackend(dir, mmapSupported)
}

func newDiskBackend(dir string, useMmap bool) (SegmentBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating cold-tier dir: %w", err)
	}
	return &diskSegmentBackend{
		dir:     dir,
		useMmap: useMmap,
		index:   make(map[event.DeviceID]map[uint64]segLoc),
		sizes:   make(map[event.DeviceID]int64),
		dirty:   make(map[string]struct{}),
		newDirs: make(map[string]struct{}),
		maps:    make(map[event.DeviceID]*fileMapping),
	}, nil
}

func (b *diskSegmentBackend) pathFor(d event.DeviceID) string {
	h := fnv.New32a()
	io.WriteString(h, string(d))
	return filepath.Join(b.dir, fmt.Sprintf("%02x", h.Sum32()&0xff), hex.EncodeToString([]byte(d))+".seg")
}

// loadLocked scans a device's file into the index on first access,
// truncating a torn final record. Caller holds b.mu.
func (b *diskSegmentBackend) loadLocked(d event.DeviceID) (map[uint64]segLoc, error) {
	if idx, ok := b.index[d]; ok {
		return idx, nil
	}
	idx := make(map[uint64]segLoc)
	path := b.pathFor(d)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		b.index[d] = idx
		b.sizes[d] = 0
		return idx, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: opening segment file: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: segment file stat: %w", err)
	}
	size := st.Size()
	valid := int64(0)
	if size >= int64(len(segFileMagic)) {
		magic := make([]byte, len(segFileMagic))
		if _, err := f.ReadAt(magic, 0); err != nil {
			return nil, fmt.Errorf("store: segment file magic: %w", err)
		}
		if string(magic) != segFileMagic {
			return nil, fmt.Errorf("store: %s: bad segment file magic %q", path, magic)
		}
		off := int64(len(segFileMagic))
		hdr := make([]byte, segRecHdrLen)
		for off+segRecHdrLen <= size {
			if _, err := f.ReadAt(hdr, off); err != nil {
				return nil, fmt.Errorf("store: segment record header: %w", err)
			}
			n := int64(binary.LittleEndian.Uint32(hdr[8:12]))
			if off+segRecHdrLen+n > size {
				break // torn final record
			}
			seq := binary.LittleEndian.Uint64(hdr[0:8])
			idx[seq] = segLoc{off: off + segRecHdrLen, n: int(n)}
			off += segRecHdrLen + n
		}
		valid = off
	}
	// A torn tail (or a torn magic from a crash during file creation) is
	// dropped so appends resume at a clean boundary.
	if valid < size {
		if err := f.Truncate(valid); err != nil {
			return nil, fmt.Errorf("store: truncating torn segment record: %w", err)
		}
	}
	b.index[d] = idx
	b.sizes[d] = valid
	return idx, nil
}

func (b *diskSegmentBackend) Put(d event.DeviceID, seq uint64, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx, err := b.loadLocked(d)
	if err != nil {
		return err
	}
	path := b.pathFor(d)
	size := b.sizes[d]
	if size == 0 {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("store: creating segment subdir: %w", err)
		}
		b.newDirs[filepath.Dir(path)] = struct{}{}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment file: %w", err)
	}
	defer f.Close()
	rec := make([]byte, 0, len(segFileMagic)+segRecHdrLen+len(payload))
	if size == 0 {
		rec = append(rec, segFileMagic...)
	}
	rec = binary.LittleEndian.AppendUint64(rec, seq)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	if _, err := f.WriteAt(rec, size); err != nil {
		return fmt.Errorf("store: writing segment: %w", err)
	}
	off := size + int64(len(rec)) - int64(len(payload))
	idx[seq] = segLoc{off: off, n: len(payload)}
	b.sizes[d] = size + int64(len(rec))
	b.dirty[path] = struct{}{}
	return nil
}

func (b *diskSegmentBackend) Get(d event.DeviceID, seq uint64) ([]byte, error) {
	b.mu.Lock()
	idx, err := b.loadLocked(d)
	if err != nil {
		b.mu.Unlock()
		return nil, err
	}
	loc, ok := idx[seq]
	path := b.pathFor(d)
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: segment %d for device %s not in cold tier", seq, d)
	}
	// The read runs outside the lock: records are immutable once indexed
	// and appends never move them, so concurrent page-ins proceed in
	// parallel.
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening segment file: %w", err)
	}
	defer f.Close()
	p := make([]byte, loc.n)
	if _, err := f.ReadAt(p, loc.off); err != nil {
		return nil, fmt.Errorf("store: reading segment %d for device %s: %w", seq, d, err)
	}
	return p, nil
}

func (b *diskSegmentBackend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for path := range b.dirty {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("store: syncing segment file: %w", err)
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("store: syncing segment file: %w", err)
		}
		delete(b.dirty, path)
	}
	for dir := range b.newDirs {
		f, err := os.Open(dir)
		if err != nil {
			return fmt.Errorf("store: syncing segment dir: %w", err)
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("store: syncing segment dir: %w", err)
		}
		delete(b.newDirs, dir)
	}
	// The root dir gains subdirectories; one sync covers them all.
	f, err := os.Open(b.dir)
	if err != nil {
		return fmt.Errorf("store: syncing cold-tier dir: %w", err)
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return fmt.Errorf("store: syncing cold-tier dir: %w", err)
	}
	return nil
}

func (b *diskSegmentBackend) Persistent() bool { return true }

// --- Mapping working set ------------------------------------------------------

func (b *diskSegmentBackend) mapUnlinkLocked(m *fileMapping) {
	if m.prev != nil {
		m.prev.next = m.next
	} else if b.mapHead == m {
		b.mapHead = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	} else if b.mapTail == m {
		b.mapTail = m.prev
	}
	m.prev, m.next = nil, nil
}

func (b *diskSegmentBackend) mapPushFrontLocked(m *fileMapping) {
	m.next = b.mapHead
	if b.mapHead != nil {
		b.mapHead.prev = m
	}
	b.mapHead = m
	if b.mapTail == nil {
		b.mapTail = m
	}
}

// dropMappingLocked retires a mapping from the working set. If a borrowed
// view is in flight the mapping is doomed and the last returning borrower
// unmaps it; otherwise it is unmapped now. Caller holds b.mu.
func (b *diskSegmentBackend) dropMappingLocked(m *fileMapping) {
	b.mapUnlinkLocked(m)
	delete(b.maps, m.dev)
	if m.refs > 0 {
		m.doomed = true
		return
	}
	b.mappedBytes -= int64(len(m.data))
	munmapFile(m.data)
	m.data = nil
}

// mappingLocked returns a mapping of d's file covering at least need bytes,
// reusing the live one when it is long enough and (re)mapping at the
// current file size otherwise. Caller holds b.mu; the returned mapping is
// valid until dropped, so callers that release b.mu must hold a ref.
func (b *diskSegmentBackend) mappingLocked(d event.DeviceID, need int64) (*fileMapping, error) {
	if m, ok := b.maps[d]; ok {
		if int64(len(m.data)) >= need {
			if b.mapHead != m {
				b.mapUnlinkLocked(m)
				b.mapPushFrontLocked(m)
			}
			return m, nil
		}
		// The file grew past the mapped prefix: remap at the new size. The
		// old mapping stays valid for in-flight views (records never move),
		// so it is doomed, not unmapped.
		b.dropMappingLocked(m)
		b.remaps++
	}
	f, err := os.Open(b.pathFor(d))
	if err != nil {
		return nil, fmt.Errorf("store: opening segment file for mmap: %w", err)
	}
	data, err := mmapFile(f, b.sizes[d])
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("store: mapping segment file: %w", err)
	}
	m := &fileMapping{dev: d, data: data}
	b.maps[d] = m
	b.mapPushFrontLocked(m)
	b.mappedBytes += int64(len(data))
	for len(b.maps) > maxMappedFiles && b.mapTail != nil && b.mapTail != m {
		b.dropMappingLocked(b.mapTail)
	}
	return m, nil
}

// viewBufPool recycles page-in buffers for the read-at View path so the
// fallback backend doesn't churn one allocation per cold read.
var viewBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// View lends fn a read-only view of the payload. With mmap it is a slice of
// the file mapping — zero heap bytes, refcounted against concurrent remap
// or reclaim; without it, a pooled buffer filled by positional read.
func (b *diskSegmentBackend) View(d event.DeviceID, seq uint64, fn func(payload []byte) error) error {
	b.mu.Lock()
	idx, err := b.loadLocked(d)
	if err != nil {
		b.mu.Unlock()
		return err
	}
	loc, ok := idx[seq]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("store: segment %d for device %s not in cold tier", seq, d)
	}
	if b.useMmap {
		m, merr := b.mappingLocked(d, loc.off+int64(loc.n))
		if merr == nil {
			m.refs++
			view := m.data[loc.off : loc.off+int64(loc.n)]
			b.mu.Unlock()
			err = fn(view)
			b.mu.Lock()
			m.refs--
			if m.doomed && m.refs == 0 {
				b.mappedBytes -= int64(len(m.data))
				munmapFile(m.data)
				m.data = nil
			}
			b.mu.Unlock()
			return err
		}
		// Mapping failed (e.g. transient open error): fall through to the
		// positional read, which serves the same bytes.
	}
	path := b.pathFor(d)
	b.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: opening segment file: %w", err)
	}
	bufp := viewBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	if cap(buf) < loc.n {
		buf = make([]byte, loc.n)
	} else {
		buf = buf[:loc.n]
	}
	_, err = f.ReadAt(buf, loc.off)
	f.Close()
	if err != nil {
		*bufp = buf
		viewBufPool.Put(bufp)
		return fmt.Errorf("store: reading segment %d for device %s: %w", seq, d, err)
	}
	err = fn(buf)
	*bufp = buf
	viewBufPool.Put(bufp)
	return err
}

// Reclaim rewrites device files dropping records whose seq is dead in the
// live set: payloads superseded by a last-wins re-seal or orphaned by
// runt-segment compaction. Each rewrite is tmp+rename atomic — a crash at
// any point leaves either the old file or the complete new one — and the
// rewrite is skipped unless the dead share clears the amortization gates.
func (b *diskSegmentBackend) Reclaim(live map[event.DeviceID]LiveSegments) (int64, error) {
	var reclaimed int64
	var firstErr error
	for d, ls := range live {
		n, err := b.reclaimDevice(d, ls)
		reclaimed += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return reclaimed, firstErr
}

func (b *diskSegmentBackend) reclaimDevice(d event.DeviceID, ls LiveSegments) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx, err := b.loadLocked(d)
	if err != nil {
		return 0, err
	}
	size := b.sizes[d]
	if size == 0 {
		return 0, nil
	}
	liveBytes := int64(len(segFileMagic))
	keep := make([]uint64, 0, len(idx))
	for seq, loc := range idx {
		if seqLive(seq, ls) {
			keep = append(keep, seq)
			liveBytes += segRecHdrLen + int64(loc.n)
		}
	}
	dead := size - liveBytes
	if dead < reclaimMinDeadBytes || dead*reclaimDeadFraction < size {
		return 0, nil
	}
	slices.Sort(keep)
	path := b.pathFor(d)
	newIdx, newSize, err := b.rewriteFile(path, idx, keep)
	if err != nil {
		b.rewriteFails++
		return 0, fmt.Errorf("store: reclaiming %s: %w", path, err)
	}
	b.index[d] = newIdx
	b.sizes[d] = newSize
	delete(b.dirty, path)
	if m, ok := b.maps[d]; ok {
		// The rewritten file has different record offsets; in-flight views
		// of the old mapping stay valid (the old inode lives until they
		// return), new views map the new file.
		b.dropMappingLocked(m)
		b.remaps++
	}
	b.rewrites++
	b.reclaimedBytes += dead
	return dead, nil
}

// rewriteFile writes magic plus the kept records (in seq order) to a temp
// file, fsyncs it, renames it over path, and fsyncs the parent directory.
// It returns the new record index and file size. Caller holds b.mu.
func (b *diskSegmentBackend) rewriteFile(path string, idx map[uint64]segLoc, keep []uint64) (map[uint64]segLoc, int64, error) {
	src, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer src.Close()
	tmpPath := path + segTmpSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	newIdx := make(map[uint64]segLoc, len(keep))
	ok := false
	defer func() {
		if !ok {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	if _, err := tmp.WriteString(segFileMagic); err != nil {
		return nil, 0, err
	}
	off := int64(len(segFileMagic))
	var hdr [segRecHdrLen]byte
	for _, seq := range keep {
		loc := idx[seq]
		p := make([]byte, loc.n)
		if _, err := src.ReadAt(p, loc.off); err != nil {
			return nil, 0, err
		}
		binary.LittleEndian.PutUint64(hdr[0:8], seq)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(loc.n))
		if _, err := tmp.Write(hdr[:]); err != nil {
			return nil, 0, err
		}
		if _, err := tmp.Write(p); err != nil {
			return nil, 0, err
		}
		newIdx[seq] = segLoc{off: off + segRecHdrLen, n: loc.n}
		off += segRecHdrLen + int64(loc.n)
	}
	if err := tmp.Sync(); err != nil {
		return nil, 0, err
	}
	if err := tmp.Close(); err != nil {
		return nil, 0, err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return nil, 0, err
	}
	ok = true
	if dirf, err := os.Open(filepath.Dir(path)); err == nil {
		dirf.Sync()
		dirf.Close()
	}
	return newIdx, off, nil
}

// BackendStats reports the mapping working set and reclamation counters.
func (b *diskSegmentBackend) BackendStats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{
		MappedFiles:     len(b.maps),
		MappedBytes:     b.mappedBytes,
		Remaps:          b.remaps,
		Rewrites:        b.rewrites,
		RewriteFailures: b.rewriteFails,
		ReclaimedBytes:  b.reclaimedBytes,
	}
}

func (b *diskSegmentBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// The store issues no calls after Close, so no views are in flight and
	// every live mapping can be unmapped immediately.
	for _, m := range b.maps {
		b.mappedBytes -= int64(len(m.data))
		munmapFile(m.data)
		m.data = nil
	}
	b.maps = make(map[event.DeviceID]*fileMapping)
	b.mapHead, b.mapTail = nil, nil
	return nil
}

package store

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/wal"
)

// newSegmented returns a store sealing heads at max events into backend (nil
// selects the in-memory tier); newSliceOracle returns one whose seal
// threshold no test reaches, so every log stays a plain sorted slice — the
// answers every segmented read path must reproduce exactly.
func newSegmented(t *testing.T, max int, backend SegmentBackend) *Store {
	t.Helper()
	s := New(0)
	if err := s.ConfigureSegments(SegmentConfig{MaxEvents: max, Backend: backend}); err != nil {
		t.Fatal(err)
	}
	return s
}

func newSliceOracle(t *testing.T) *Store {
	return newSegmented(t, 1<<20, nil)
}

func eventsEqual(a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Device != b[i].Device || a[i].AP != b[i].AP || !a[i].Time.Equal(b[i].Time) {
			return false
		}
	}
	return true
}

// TestSealRegistersSegments checks the seal lifecycle: heads compress into
// segments at the threshold, counters track the shape, and the full log
// round-trips through the encoded payloads.
func TestSealRegistersSegments(t *testing.T) {
	s := newSegmented(t, 4, nil)
	var want []event.Event
	for i := 0; i < 11; i++ {
		e := mk("d", time.Duration(i)*time.Minute, "x")
		if _, err := s.Ingest([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	want = s.Events("d")
	if len(want) != 11 {
		t.Fatalf("Events returned %d events, want 11", len(want))
	}
	st := s.SegmentStats()
	if st.MaxEvents != 4 {
		t.Fatalf("stats = %+v, want MaxEvents 4", st)
	}
	if st.Segments != 2 || st.SegmentEvents != 8 || st.HeadEvents != 3 {
		t.Fatalf("shape = %d segments / %d sealed / %d head, want 2/8/3", st.Segments, st.SegmentEvents, st.HeadEvents)
	}
	if st.Seals != 2 || st.SealFailures != 0 || st.EncodedBytes <= 0 {
		t.Fatalf("seal counters = %+v", st)
	}
	// The encoded form must be far smaller than the in-memory structs.
	if perEvent := float64(st.EncodedBytes) / float64(st.SegmentEvents); perEvent > 16 {
		t.Errorf("encoded bytes/event = %.1f, want compact (<16)", perEvent)
	}
	// A cache invalidation forces page-ins; the log must survive them.
	s.InvalidateSegmentCache()
	got := s.Events("d")
	if !eventsEqual(got, want) {
		t.Fatalf("after invalidation Events = %v, want %v", got, want)
	}
	// Windowed reads go through the decoded-segment cache and must page the
	// cold payloads back in (bulk materialization above bypasses it).
	if evs := s.EventsBetween("d", t0, t0.Add(10*time.Minute)); !eventsEqual(evs, want) {
		t.Fatalf("after invalidation EventsBetween = %v, want %v", evs, want)
	}
	if st := s.SegmentStats(); st.PageIns == 0 {
		t.Error("expected page-ins after cache invalidation")
	}
}

// TestSegmentedMatchesSliceOracle drives the same out-of-order workload into
// a segmented store and a plain-slice oracle and checks every read path
// answers identically: the tentpole's contract is that segmentation is
// invisible to consumers.
func TestSegmentedMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seg := newSegmented(t, 4, nil)
	ora := newSliceOracle(t)

	devs := []string{"d0", "d1", "d2"}
	aps := []string{"a0", "a1", "a2", "a3"}
	span := 6 * time.Hour
	for i := 0; i < 400; i++ {
		e := mk(devs[rng.Intn(len(devs))], time.Duration(rng.Int63n(int64(span))), aps[rng.Intn(len(aps))])
		if _, err := seg.Ingest([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
		if _, err := ora.Ingest([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	if seg.NumEvents() != ora.NumEvents() || seg.NumDevices() != ora.NumDevices() {
		t.Fatalf("counts diverge: %d/%d vs %d/%d", seg.NumEvents(), seg.NumDevices(), ora.NumEvents(), ora.NumDevices())
	}
	if st := seg.SegmentStats(); st.Segments == 0 {
		t.Fatal("workload sealed no segments; thresholds too high for the test to mean anything")
	}

	for _, d := range devs {
		dd := event.DeviceID(d)
		if !eventsEqual(seg.Events(dd), ora.Events(dd)) {
			t.Fatalf("device %s: Events diverges from oracle", d)
		}
	}
	randT := func() time.Time {
		return t0.Add(time.Duration(rng.Int63n(int64(span+2*time.Hour))) - time.Hour)
	}
	for i := 0; i < 200; i++ {
		d := event.DeviceID(devs[rng.Intn(len(devs))])
		a, b := randT(), randT()
		if b.Before(a) {
			a, b = b, a
		}
		if got, want := seg.EventsBetween(d, a, b), ora.EventsBetween(d, a, b); !eventsEqual(got, want) {
			t.Fatalf("EventsBetween(%s, %v, %v) = %d events, oracle %d", d, a, b, len(got), len(want))
		}
		tq := randT()
		sv, sg, sw, serr := seg.At(d, tq)
		ov, og, ow, oerr := ora.At(d, tq)
		if (serr == nil) != (oerr == nil) {
			t.Fatalf("At(%s, %v) err = %v, oracle %v", d, tq, serr, oerr)
		}
		if sw != ow {
			t.Fatalf("At(%s, %v) = (%v, %v, %d), oracle (%v, %v, %d)", d, tq, sv, sg, sw, ov, og, ow)
		}
		if sw == event.InValidity && (sv.Event.ID != ov.Event.ID || !sv.Start.Equal(ov.Start) || !sv.End.Equal(ov.End)) {
			t.Fatalf("At(%s, %v) validity = %+v, oracle %+v", d, tq, sv, ov)
		}
		if sw == event.InGap && (sg.PrevEvent.ID != og.PrevEvent.ID || sg.NextEvent.ID != og.NextEvent.ID ||
			!sg.Start.Equal(og.Start) || !sg.End.Equal(og.End)) {
			t.Fatalf("At(%s, %v) gap = %+v, oracle %+v", d, tq, sg, og)
		}
		if gap, gok := seg.CurrentAP(d, tq); true {
			oap, ook := ora.CurrentAP(d, tq)
			if gok != ook || gap != oap {
				t.Fatalf("CurrentAP(%s, %v) = %v/%v, oracle %v/%v", d, tq, gap, gok, oap, ook)
			}
		}
		se, sok := seg.LastEventAtOrBefore(d, tq)
		oe, ook := ora.LastEventAtOrBefore(d, tq)
		if sok != ook || (sok && se.ID != oe.ID) {
			t.Fatalf("LastEventAtOrBefore(%s, %v) = %v/%v, oracle %v/%v", d, tq, se, sok, oe, ook)
		}
	}
	// Active-device discovery: the segmented store runs the occupancy index
	// (with segment-metadata boundary verification), the oracle scans slices.
	for i := 0; i < 60; i++ {
		a, b := randT(), randT()
		if b.Before(a) {
			a, b = b, a
		}
		var filter []space.APID
		if i%2 == 1 {
			filter = []space.APID{space.APID(aps[rng.Intn(len(aps))]), space.APID(aps[rng.Intn(len(aps))])}
		}
		got := seg.ActiveDevicesAt(filter, a, b)
		want := ora.ActiveDevicesAt(filter, a, b)
		if len(got) != len(want) {
			t.Fatalf("ActiveDevicesAt(%v, %v, %v) = %v, oracle %v", filter, a, b, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("ActiveDevicesAt(%v, %v, %v) = %v, oracle %v", filter, a, b, got, want)
			}
		}
	}
}

// TestScanEventsZeroCopyWindows spot-checks the fast paths: windows that live
// entirely in the head or one segment must still be exact after seals.
func TestScanEventsZeroCopyWindows(t *testing.T) {
	s := newSegmented(t, 4, nil)
	for i := 0; i < 10; i++ {
		if _, err := s.Ingest([]event.Event{mk("d", time.Duration(i)*time.Minute, "x")}); err != nil {
			t.Fatal(err)
		}
	}
	// Window inside the first sealed segment.
	got := s.EventsBetween("d", t0, t0.Add(2*time.Minute))
	if len(got) != 3 {
		t.Fatalf("segment window = %d events, want 3", len(got))
	}
	// Window inside the head only.
	got = s.EventsBetween("d", t0.Add(8*time.Minute), t0.Add(9*time.Minute))
	if len(got) != 2 {
		t.Fatalf("head window = %d events, want 2", len(got))
	}
	// Window straddling segments and head.
	got = s.EventsBetween("d", t0.Add(2*time.Minute), t0.Add(9*time.Minute))
	if len(got) != 8 {
		t.Fatalf("straddling window = %d events, want 8", len(got))
	}
	// Empty window between events.
	got = s.EventsBetween("d", t0.Add(30*time.Second), t0.Add(45*time.Second))
	if len(got) != 0 {
		t.Fatalf("empty window = %d events, want 0", len(got))
	}
}

// TestConfigureSegmentsRejectsNonEmptyStore pins the configuration contract.
func TestConfigureSegmentsRejectsNonEmptyStore(t *testing.T) {
	s := New(0)
	if _, err := s.Ingest([]event.Event{mk("d", 0, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.ConfigureSegments(SegmentConfig{MaxEvents: 4}); err == nil {
		t.Fatal("ConfigureSegments on a non-empty store should fail")
	}
}

// TestCheckpointStateRestoreRoundTrip seals into a cold tier, captures an
// incremental checkpoint, and rebuilds a fresh store from the manifest plus
// heads — the recovery path — checking byte-for-byte read equality and that
// sequence numbers resume past the restored segments.
func TestCheckpointStateRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(0)
	if err := s.ConfigureSegments(SegmentConfig{MaxEvents: 4, Backend: b1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	devs := []string{"d0", "d1"}
	for i := 0; i < 37; i++ {
		e := mk(devs[rng.Intn(2)], time.Duration(rng.Int63n(int64(3*time.Hour))), "x")
		if _, err := s.Ingest([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CheckpointState()
	if len(st.Segments) == 0 {
		t.Fatal("checkpoint captured no segments")
	}
	for d, head := range st.Heads {
		if len(head) >= 4 {
			t.Errorf("device %s: checkpoint head has %d events, should be below the seal threshold", d, len(head))
		}
	}
	if err := s.SyncSegments(); err != nil {
		t.Fatal(err)
	}

	b2, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := New(0)
	if err := r.ConfigureSegments(SegmentConfig{MaxEvents: 4, Backend: b2}); err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreSegments(st.Segments); err != nil {
		t.Fatal(err)
	}
	for _, head := range st.Heads {
		if _, err := r.Ingest(head); err != nil {
			t.Fatal(err)
		}
	}
	if r.NumEvents() != s.NumEvents() {
		t.Fatalf("restored %d events, want %d", r.NumEvents(), s.NumEvents())
	}
	for _, d := range devs {
		dd := event.DeviceID(d)
		if !eventsEqual(r.Events(dd), s.Events(dd)) {
			t.Fatalf("device %s: restored log diverges", d)
		}
	}
	// Restored occupancy index (streamed from the cold tier) must answer
	// like the live store's.
	a, b := t0.Add(20*time.Minute), t0.Add(100*time.Minute)
	gotAD, wantAD := r.ActiveDevicesAt(nil, a, b), s.ActiveDevicesAt(nil, a, b)
	if len(gotAD) != len(wantAD) {
		t.Fatalf("restored ActiveDevices = %v, want %v", gotAD, wantAD)
	}
	// New seals after restore must not collide with restored sequence
	// numbers: keep ingesting past the threshold and re-read everything.
	before := r.SegmentStats().Segments
	var extra []event.Event
	for i := 0; i < 12; i++ {
		e := mk("d0", 4*time.Hour+time.Duration(i)*time.Minute, "y")
		extra = append(extra, e)
		if _, err := r.Ingest([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	if after := r.SegmentStats().Segments; after <= before {
		t.Fatalf("no new seals after restore (%d -> %d)", before, after)
	}
	r.InvalidateSegmentCache()
	evs := r.Events("d0")
	tail := evs[len(evs)-len(extra):]
	if !eventsEqual(tail, func() []event.Event {
		cp := make([]event.Event, len(extra))
		copy(cp, extra)
		for i := range cp {
			cp[i].ID = tail[i].ID
		}
		return cp
	}()) {
		t.Fatalf("post-restore seals lost events: %v", tail)
	}
}

// TestRestoreSegmentsRejectsNonEmptyStore pins the restore contract.
func TestRestoreSegmentsRejectsNonEmptyStore(t *testing.T) {
	s := newSegmented(t, 4, nil)
	if _, err := s.Ingest([]event.Event{mk("d", 0, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreSegments(nil); err == nil {
		t.Fatal("RestoreSegments on a non-empty store should fail")
	}
}

// TestDiskBackendReloadAndLastWins covers the cold tier's file format:
// payloads survive a fresh index build, and a duplicate sequence number —
// crash recovery re-sealing an unmanifested head — resolves to the newest
// record.
func TestDiskBackendReloadAndLastWins(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	put := func(bk SegmentBackend, d string, seq uint64, payload string) {
		t.Helper()
		if err := bk.Put(event.DeviceID(d), seq, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(bk SegmentBackend, d string, seq uint64) string {
		t.Helper()
		p, err := bk.Get(event.DeviceID(d), seq)
		if err != nil {
			t.Fatal(err)
		}
		return string(p)
	}
	put(b, "d1", 1, "alpha")
	put(b, "d1", 2, "beta")
	put(b, "d2", 1, "gamma")
	put(b, "d1", 2, "beta-rewritten")
	if got := get(b, "d1", 2); got != "beta-rewritten" {
		t.Fatalf("dup seq read %q, want last write", got)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if !b.Persistent() {
		t.Fatal("disk backend must report persistent")
	}

	// A fresh backend over the same directory rebuilds the index from the
	// files; last-wins must hold across the reload too.
	b2, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := get(b2, "d1", 1); got != "alpha" {
		t.Fatalf("reload read %q, want alpha", got)
	}
	if got := get(b2, "d1", 2); got != "beta-rewritten" {
		t.Fatalf("reload dup seq read %q, want last write", got)
	}
	if got := get(b2, "d2", 1); got != "gamma" {
		t.Fatalf("reload read %q, want gamma", got)
	}
	if _, err := b2.Get("d1", 99); err == nil {
		t.Fatal("missing seq should error")
	}
	if _, err := b2.Get("ghost", 1); err == nil {
		t.Fatal("unknown device should error")
	}
}

// TestDiskBackendTornTailTruncated appends a torn final record (a crash mid
// Put) and checks a reload drops it, keeps the intact prefix, and appends
// cleanly afterwards.
func TestDiskBackendTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("d", 1, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one segment file, got %v (%v)", matches, err)
	}
	// A record header claiming 100 payload bytes, followed by only 3: torn.
	torn := []byte{2, 0, 0, 0, 0, 0, 0, 0, 100, 0, 0, 0, 'x', 'y', 'z'}
	f, err := os.OpenFile(matches[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := b2.Get("d", 1); err != nil || string(p) != "intact" {
		t.Fatalf("prefix lost after torn tail: %q, %v", p, err)
	}
	if _, err := b2.Get("d", 2); err == nil {
		t.Fatal("torn record must not be indexed")
	}
	if err := b2.Put("d", 2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	b3, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := b3.Get("d", 2); err != nil || string(p) != "after" {
		t.Fatalf("append after truncation lost: %q, %v", p, err)
	}
}

// corruptSecondSegment returns a store whose device d has eight events a
// minute apart sealed as two four-event segments in a disk cold tier, with
// one byte of the second segment's payload flipped — inside its block's
// CRC-covered data — and no decoded segment cached.
func corruptSecondSegment(t *testing.T) *Store {
	t.Helper()
	dir := t.TempDir()
	b, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(0)
	if err := s.ConfigureSegments(SegmentConfig{MaxEvents: 4, Backend: b}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Ingest([]event.Event{mk("d", time.Duration(i)*time.Minute, "x")}); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one segment file, got %v (%v)", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	rec1 := len(segFileMagic)
	n1 := int(binary.LittleEndian.Uint32(raw[rec1+8 : rec1+12]))
	p2 := rec1 + segRecHdrLen + n1 + segRecHdrLen
	raw[p2] ^= 0xff
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s.InvalidateSegmentCache() // drop the pre-warmed decodes: force page-ins
	return s
}

// TestCorruptSegmentRefused flips one byte of a cold-tier payload and checks
// every read path refuses the segment — errors or empty results plus a
// DecodeFailures bump — rather than serving corrupt events.
func TestCorruptSegmentRefused(t *testing.T) {
	s := corruptSecondSegment(t)
	if evs := s.Events("d"); evs != nil {
		t.Fatalf("Events served %d events from a corrupt log, want nil", len(evs))
	}
	if evs := s.EventsBetween("d", t0.Add(4*time.Minute), t0.Add(7*time.Minute)); len(evs) != 0 {
		t.Fatalf("EventsBetween served %d events from a corrupt segment", len(evs))
	}
	if _, _, _, err := s.At("d", t0.Add(5*time.Minute)); err == nil {
		t.Fatal("At over a corrupt segment should error")
	}
	if st := s.SegmentStats(); st.DecodeFailures == 0 {
		t.Fatal("decode failures not counted")
	}
	// The intact first segment still serves.
	if evs := s.EventsBetween("d", t0, t0.Add(2*time.Minute)); len(evs) != 3 {
		t.Fatalf("intact segment window = %d events, want 3", len(evs))
	}
}

// TestSwallowedLookupErrorsCounted: the lookups that answer around an
// unreadable segment instead of failing keep their answer — neighbor
// discovery reads the device as inactive, CurrentAP as offline — and count
// each refusal in SegmentStats.LookupErrors.
func TestSwallowedLookupErrorsCounted(t *testing.T) {
	s := corruptSecondSegment(t)
	if n := s.SegmentStats().LookupErrors; n != 0 {
		t.Fatalf("lookup errors = %d before any lookup", n)
	}
	// [4m30s, 6m] lies inside one boundary bucket, so the AP-scoped lookup
	// must read the corrupt segment to confirm d.
	if got := s.ActiveDevicesAt([]space.APID{"x"}, t0.Add(4*time.Minute+30*time.Second), t0.Add(6*time.Minute)); got != nil {
		t.Fatalf("ActiveDevicesAt over a corrupt segment = %v, want none", got)
	}
	if n := s.SegmentStats().LookupErrors; n != 1 {
		t.Fatalf("lookup errors = %d after the neighbor lookup, want 1", n)
	}
	if ap, ok := s.CurrentAP("d", t0.Add(5*time.Minute)); ok {
		t.Fatalf("CurrentAP over a corrupt segment = %s, want offline", ap)
	}
	if n := s.SegmentStats().LookupErrors; n != 2 {
		t.Fatalf("lookup errors = %d after CurrentAP, want 2", n)
	}
}

// TestRetainedReadsAreCopiesUnderIngest is the satellite contract test for
// the ScanEvents doc fix: callers that need to keep events use the copying
// paths (Events / EventsBetween), and the copies must stay
// stable — and race-free, under -race — while ingest keeps appending and
// sealing behind them. ScanEvents visitor slices, by contrast, are decode or
// scratch buffers that must not be retained; this pins that the copying
// wrappers actually insulate callers from that.
func TestRetainedReadsAreCopiesUnderIngest(t *testing.T) {
	s := newSegmented(t, 8, nil)
	for i := 0; i < 64; i++ {
		if _, err := s.Ingest([]event.Event{mk("d", time.Duration(i)*time.Second, "x")}); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(evs []event.Event) int64 {
		var h int64
		for i := range evs {
			h = h*31 + evs[i].ID + evs[i].Time.Unix()
		}
		return h
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	var writerErr atomic.Value
	writers.Add(1)
	go func() {
		defer writers.Done()
		// Bounded: an unthrottled writer grows the log faster than the
		// readers' O(n) passes can keep up with. 20k events still crosses
		// thousands of seal boundaries while the readers hold their copies.
		for i := 64; i < 20_000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Ingest([]event.Event{mk("d", time.Duration(i)*time.Second, "x")}); err != nil {
				writerErr.Store(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			end := t0.Add(time.Hour)
			for k := 0; k < 150; k++ {
				evs := s.EventsBetween("d", t0, end)
				before := sum(evs)
				runtime.Gosched() // let ingest seal and recycle buffers
				if after := sum(evs); after != before {
					t.Errorf("retained EventsBetween slice mutated under ingest: %d -> %d", before, after)
					return
				}
				all := s.Events("d")
				before = sum(all)
				runtime.Gosched()
				if after := sum(all); after != before {
					t.Errorf("retained Events slice mutated under ingest: %d -> %d", before, after)
					return
				}
			}
		}()
	}
	// Readers drive the duration; once they finish, stop the writer.
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("test wedged")
	}
	close(stop)
	writers.Wait()
	if err, _ := writerErr.Load().(error); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRuntSegments seals a log into many runt segments (a manifest
// written under a small seal threshold, restored into a store with a larger
// one), compacts, and checks the merged layout answers every read exactly
// like the pre-compaction log while the manifest shrinks.
func TestCompactRuntSegments(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	small := New(0)
	if err := small.ConfigureSegments(SegmentConfig{MaxEvents: 4, Backend: b1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		e := mk("d", time.Duration(rng.Int63n(int64(6*time.Hour))), "x")
		if _, err := small.Ingest([]event.Event{e}); err != nil {
			t.Fatal(err)
		}
	}
	st := small.CheckpointState()
	if err := small.SyncSegments(); err != nil {
		t.Fatal(err)
	}
	want := small.Events("d")

	b2, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	big := New(0)
	if err := big.ConfigureSegments(SegmentConfig{MaxEvents: 32, Backend: b2}); err != nil {
		t.Fatal(err)
	}
	if err := big.RestoreSegments(st.Segments); err != nil {
		t.Fatal(err)
	}
	for _, head := range st.Heads {
		if _, err := big.Ingest(head); err != nil {
			t.Fatal(err)
		}
	}
	before := big.SegmentStats()
	if before.Segments < 4 {
		t.Fatalf("restore produced %d segments, want ≥4 runts to compact", before.Segments)
	}

	merged := big.CompactRuntSegments()
	if merged == 0 {
		t.Fatal("CompactRuntSegments merged nothing")
	}
	after := big.SegmentStats()
	if after.Segments >= before.Segments {
		t.Fatalf("segments %d → %d, want fewer after compaction", before.Segments, after.Segments)
	}
	if after.Segments != before.Segments-merged {
		t.Fatalf("segments %d → %d with %d merges, counts disagree", before.Segments, after.Segments, merged)
	}
	if after.SegmentEvents != before.SegmentEvents {
		t.Fatalf("sealed events %d → %d, compaction must not change totals", before.SegmentEvents, after.SegmentEvents)
	}
	if after.Compactions != int64(merged) || after.CompactionFailures != 0 {
		t.Fatalf("compaction counters = %+v, want %d clean merges", after, merged)
	}

	// Reads must be unchanged, including after dropping the decoded cache
	// (forcing page-ins of the freshly written merged payloads).
	if got := big.Events("d"); !eventsEqual(got, want) {
		t.Fatalf("post-compaction Events diverge")
	}
	big.InvalidateSegmentCache()
	if got := big.EventsBetween("d", t0, t0.Add(6*time.Hour)); !eventsEqual(got, want) {
		t.Fatalf("post-compaction EventsBetween diverges after cache drop")
	}

	// A second pass finds nothing left to merge.
	if again := big.CompactRuntSegments(); again != 0 {
		t.Fatalf("second compaction merged %d more segments, want 0", again)
	}

	// The compacted manifest must checkpoint and restore: recovery reads
	// only the new sequence numbers (orphaned runt payloads are ignored).
	st2 := big.CheckpointState()
	if err := big.SyncSegments(); err != nil {
		t.Fatal(err)
	}
	b3, err := NewDiskSegmentBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := New(0)
	if err := rec.ConfigureSegments(SegmentConfig{MaxEvents: 32, Backend: b3}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RestoreSegments(st2.Segments); err != nil {
		t.Fatal(err)
	}
	for _, head := range st2.Heads {
		if _, err := rec.Ingest(head); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Events("d"); !eventsEqual(got, want) {
		t.Fatalf("recovered post-compaction log diverges")
	}
}

// TestCompactRuntSegmentsRespectsMaxEvents: merges never build a segment
// larger than the seal threshold, and a lone pair exceeding it stays split.
func TestCompactRuntSegmentsRespectsMaxEvents(t *testing.T) {
	s := newSegmented(t, 4, nil)
	for i := 0; i < 16; i++ {
		if _, err := s.Ingest([]event.Event{mk("d", time.Duration(i)*time.Minute, "x")}); err != nil {
			t.Fatal(err)
		}
	}
	// Four full segments of 4 under segMax=4: none is a runt (the runt
	// threshold is MaxEvents/4 = 1 event), so compaction is a no-op.
	if merged := s.CompactRuntSegments(); merged != 0 {
		t.Fatalf("full segments merged %d times, want 0", merged)
	}
	if st := s.SegmentStats(); st.Segments != 4 {
		t.Fatalf("segments = %d, want 4 untouched", st.Segments)
	}
}

// TestCompactRuntSegmentsKeepsEventOrder: merging two runts whose events
// share a timestamp, with IDs running against seal order, leaves the merged
// segment in (Time, ID, Device) order — the order scans and merges rely on.
func TestCompactRuntSegmentsKeepsEventOrder(t *testing.T) {
	at := func(min int, id int64) event.Event {
		e := mk("d", time.Duration(min)*time.Minute, "x")
		e.ID = id
		return e
	}
	runts := [][]event.Event{
		{at(0, 101), at(1, 102), at(3, 104), at(5, 105)},
		{at(2, 3), at(3, 5), at(4, 6), at(6, 7)},
	}
	backend := NewMemorySegmentBackend()
	var metas []wal.SegmentMeta
	for i, evs := range runts {
		payload, _ := wal.EncodeSegment(nil, evs, 0)
		seq := uint64(i + 1)
		if err := backend.Put("d", seq, payload); err != nil {
			t.Fatal(err)
		}
		metas = append(metas, wal.SegmentMeta{
			Seq:      seq,
			Count:    len(evs),
			MinNanos: evs[0].Time.UnixNano(),
			MaxNanos: evs[len(evs)-1].Time.UnixNano(),
			Bytes:    len(payload),
		})
	}
	s := newSegmented(t, 32, backend)
	if err := s.RestoreSegments(map[event.DeviceID][]wal.SegmentMeta{"d": metas}); err != nil {
		t.Fatal(err)
	}
	if merged := s.CompactRuntSegments(); merged != 1 {
		t.Fatalf("CompactRuntSegments merged %d pairs, want 1", merged)
	}
	got := s.EventsBetween("d", t0, t0.Add(time.Hour))
	if len(got) != 8 {
		t.Fatalf("EventsBetween returned %d events, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Before(got[i-1]) {
			t.Fatalf("event %d (%s id %d) before event %d (%s id %d)", i,
				got[i].Time.Format("15:04"), got[i].ID, i-1, got[i-1].Time.Format("15:04"), got[i-1].ID)
		}
	}
}

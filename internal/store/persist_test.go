package store

import (
	"errors"
	"sync"
	"testing"
	"time"

	"locater/internal/event"
)

// memBackend is a Backend double that records appended mutations and can be
// told to fail, for exercising the write-ahead contract without a real log.
type memBackend struct {
	mu         sync.Mutex
	events     []event.Event
	deltas     map[event.DeviceID]time.Duration
	commits    int
	failAppend bool
	failCommit bool
}

func newMemBackend() *memBackend {
	return &memBackend{deltas: make(map[event.DeviceID]time.Duration)}
}

var errBackend = errors.New("backend failure")

func (b *memBackend) AppendEvents(evs []event.Event) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failAppend {
		return errBackend
	}
	b.events = append(b.events, evs...)
	return nil
}

func (b *memBackend) AppendDelta(d event.DeviceID, delta time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failAppend {
		return errBackend
	}
	b.deltas[d] = delta
	return nil
}

func (b *memBackend) Commit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failCommit {
		return errBackend
	}
	b.commits++
	return nil
}

func TestBackendReceivesAcknowledgedBatch(t *testing.T) {
	s := New(0)
	b := newMemBackend()
	s.AttachBackend(b)

	evs := []event.Event{
		{Device: "aa", Time: t0, AP: "ap1"},
		{ID: 77, Device: "bb", Time: t0.Add(time.Minute), AP: "ap2"},
		{Device: "aa", Time: t0.Add(2 * time.Minute), AP: "ap1"},
	}
	if _, err := s.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	if len(b.events) != 3 {
		t.Fatalf("backend saw %d events, want 3", len(b.events))
	}
	// The logged batch carries the assigned IDs, exactly as acknowledged.
	if b.events[0].ID != 1 || b.events[1].ID != 77 || b.events[2].ID != 78 {
		t.Errorf("logged IDs = %d,%d,%d, want 1,77,78", b.events[0].ID, b.events[1].ID, b.events[2].ID)
	}
	if got := s.CheckpointState().NextID; got != 79 {
		t.Errorf("NextID = %d, want 79", got)
	}
	if b.commits != 1 {
		t.Errorf("commits = %d, want 1 (one group commit per batch)", b.commits)
	}

	if err := s.SetDelta("aa", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if b.deltas["aa"] != 5*time.Minute {
		t.Errorf("backend delta = %v", b.deltas["aa"])
	}
}

func TestFailedAppendLeavesStoreUntouched(t *testing.T) {
	s := New(0)
	b := newMemBackend()
	s.AttachBackend(b)
	if _, err := s.Ingest([]event.Event{{Device: "aa", Time: t0, AP: "ap1"}}); err != nil {
		t.Fatal(err)
	}

	b.failAppend = true
	_, err := s.Ingest([]event.Event{{Device: "bb", Time: t0, AP: "ap2"}})
	if err == nil {
		t.Fatal("ingest with failing backend must error")
	}
	if got := s.NumEvents(); got != 1 {
		t.Errorf("store has %d events after failed append, want 1", got)
	}
	if got := s.CheckpointState().NextID; got != 2 {
		t.Errorf("NextID = %d after failed append, want 2 (unchanged)", got)
	}
	if err := s.SetDelta("aa", time.Minute); err == nil {
		t.Error("SetDelta with failing backend must error")
	}
	if s.Delta("aa") != DefaultDelta {
		t.Error("failed SetDelta must not change the delta")
	}

	// Recovered backend: the counter continues without reissuing ID 2.
	b.failAppend = false
	if _, err := s.Ingest([]event.Event{{Device: "cc", Time: t0, AP: "ap3"}}); err != nil {
		t.Fatal(err)
	}
	if evs := s.Events("cc"); len(evs) != 1 || evs[0].ID != 2 {
		t.Errorf("post-recovery ingest got %+v, want ID 2", evs)
	}
}

func TestFailedCommitSurfaces(t *testing.T) {
	s := New(0)
	b := newMemBackend()
	b.failCommit = true
	s.AttachBackend(b)
	if _, err := s.Ingest([]event.Event{{Device: "aa", Time: t0, AP: "ap1"}}); !errors.Is(err, errBackend) {
		t.Fatalf("commit failure not surfaced: %v", err)
	}
}

// TestNextIDMonotonicAcrossRecovery is the regression test for recovered
// stores reissuing event IDs: whatever the ingest pattern (buffered
// out-of-order arrivals, explicit IDs above the counter), a store rebuilt
// from a snapshot + replay must hand out fresh IDs.
func TestNextIDMonotonicAcrossRecovery(t *testing.T) {
	s := New(0)
	// Out-of-order ingestion knocks the log into the buffered (unsorted)
	// path; the middle event carries an explicit high ID.
	evs := []event.Event{
		{Device: "aa", Time: t0.Add(10 * time.Minute), AP: "ap1"},
		{ID: 500, Device: "aa", Time: t0, AP: "ap1"}, // out of order + explicit ID
		{Device: "aa", Time: t0.Add(5 * time.Minute), AP: "ap2"},
	}
	if _, err := s.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	// Checkpoint capture sorts the logs; the rebuilt store must restore the
	// counter even though replay order differs from ingest order.
	state := s.CheckpointState()
	if state.NextID != 502 {
		t.Fatalf("CheckpointState.NextID = %d, want 502", state.NextID)
	}
	recovered := New(0)
	for d, delta := range state.Deltas {
		if err := recovered.SetDelta(d, delta); err != nil {
			t.Fatal(err)
		}
	}
	for _, devEvs := range state.Heads {
		if _, err := recovered.Ingest(devEvs); err != nil {
			t.Fatal(err)
		}
	}
	recovered.AdvanceNextID(state.NextID)
	if got := recovered.CheckpointState().NextID; got != 502 {
		t.Fatalf("recovered NextID = %d, want 502", got)
	}
	if err := recovered.IngestOne(event.Event{Device: "bb", Time: t0, AP: "ap1"}); err != nil {
		t.Fatal(err)
	}
	if got := recovered.Events("bb")[0].ID; got != 502 {
		t.Errorf("recovered store issued ID %d, want fresh 502", got)
	}

	// AdvanceNextID never lowers the counter.
	recovered.AdvanceNextID(10)
	if got := recovered.CheckpointState().NextID; got != 503 {
		t.Errorf("AdvanceNextID lowered the counter to %d", got)
	}
}

func TestCheckpointStateIsDeepCopy(t *testing.T) {
	s := newSegmented(t, 4, nil)
	for i := 0; i < 5; i++ {
		if err := s.IngestOne(mk("aa", time.Duration(i)*time.Minute, "ap1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetDelta("aa", time.Minute); err != nil {
		t.Fatal(err)
	}
	st := s.CheckpointState()
	st.Heads["aa"][0].AP = "tampered"
	st.Segments["aa"][0].Count = 0
	st.Deltas["aa"] = time.Nanosecond
	if evs := s.Events("aa"); len(evs) != 5 || evs[4].AP != "ap1" {
		t.Error("checkpoint shares head memory with the store")
	}
	if s.CheckpointState().Segments["aa"][0].Count != 4 {
		t.Error("checkpoint shares the segment manifest with the store")
	}
	if s.Delta("aa") != time.Minute {
		t.Error("checkpoint shares the delta map with the store")
	}
}

package fine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// LabelStore accumulates crowd-sourced room-level location labels — the
// extension the paper sketches in Section 4.1 (footnote 7): "Extending our
// approach when such data is obtainable, at least [for] some subset of
// devices, through techniques such as crowd-sourcing". Labels sharpen a
// device's room-affinity prior: the metadata-derived distribution is blended
// with the empirical distribution of labeled visits,
//
//	α'(d, r) = λ·empirical(d, r) + (1−λ)·α(d, r),   λ = n/(n+κ)
//
// where n is the number of labels the device has among the candidate rooms
// and κ (Smoothing) controls how many labels are needed before the
// empirical term dominates.
type LabelStore struct {
	mu sync.RWMutex
	// visits[device][room] = number of labeled observations.
	visits map[event.DeviceID]map[space.RoomID]int
	// Smoothing is κ. Non-positive values default to 8.
	Smoothing float64
}

// NewLabelStore creates an empty label store with smoothing κ.
func NewLabelStore(smoothing float64) *LabelStore {
	if smoothing <= 0 {
		smoothing = 8
	}
	return &LabelStore{
		visits:    make(map[event.DeviceID]map[space.RoomID]int),
		Smoothing: smoothing,
	}
}

// Add records one labeled observation: device d was in room r at time t.
// The timestamp is accepted for future time-bucketed extensions; the current
// model aggregates over all times.
func (s *LabelStore) Add(d event.DeviceID, r space.RoomID, t time.Time) error {
	if d == "" {
		return fmt.Errorf("fine: label with empty device")
	}
	if r == "" {
		return fmt.Errorf("fine: label with empty room")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.visits[d]
	if !ok {
		m = make(map[space.RoomID]int)
		s.visits[d] = m
	}
	m[r]++
	return nil
}

// Count returns the number of labels recorded for (d, r).
func (s *LabelStore) Count(d event.DeviceID, r space.RoomID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.visits[d][r]
}

// Devices lists devices with at least one label, sorted.
func (s *LabelStore) Devices() []event.DeviceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]event.DeviceID, 0, len(s.visits))
	for d := range s.visits {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns a deep copy of the label counts, for checkpointing.
func (s *LabelStore) Snapshot() map[event.DeviceID]map[space.RoomID]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[event.DeviceID]map[space.RoomID]int, len(s.visits))
	for d, rooms := range s.visits {
		m := make(map[space.RoomID]int, len(rooms))
		for r, n := range rooms {
			m[r] = n
		}
		out[d] = m
	}
	return out
}

// Restore replaces the label counts with a deep copy of m, for recovery.
// A nil map clears the store.
func (s *LabelStore) Restore(m map[event.DeviceID]map[space.RoomID]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.visits = make(map[event.DeviceID]map[space.RoomID]int, len(m))
	for d, rooms := range m {
		cp := make(map[space.RoomID]int, len(rooms))
		for r, n := range rooms {
			cp[r] = n
		}
		s.visits[d] = cp
	}
}

// BlendDense sharpens a metadata-derived room-affinity distribution with the
// device's labels over the candidate rooms: vals is the device's prior over
// rooms (parallel slices) and is sharpened in place. The result remains a
// probability distribution over rooms; with no labels among them vals is
// left unchanged.
func (s *LabelStore) BlendDense(d event.DeviceID, rooms []space.RoomID, vals []float64) {
	// The shared lock is held across the whole computation: the inner
	// visits map is mutated by Add under the write lock, so it must not be
	// read after RUnlock.
	s.mu.RLock()
	defer s.mu.RUnlock()
	visits := s.visits[d]
	if len(visits) == 0 {
		return
	}
	n := 0
	for _, r := range rooms {
		n += visits[r]
	}
	if n == 0 {
		return
	}
	lambda := float64(n) / (float64(n) + s.Smoothing)
	for i, r := range rooms {
		emp := float64(visits[r]) / float64(n)
		vals[i] = lambda*emp + (1-lambda)*vals[i]
	}
}

// SetLabelStore attaches a crowd-sourced label store to the localizer; nil
// detaches. Attached labels sharpen every subsequent query's prior. Call it
// during setup, before queries are served concurrently: the pointer itself
// is not synchronized (the LabelStore is, so adding labels while queries
// run is fine).
func (l *Localizer) SetLabelStore(s *LabelStore) { l.labels = s }

package locater

import "locater/internal/store"

// StoreForTest exposes the underlying event store so the persistence tests
// can check store-level read-path equivalence (At, Timeline, deltas)
// between a live and a recovered system.
func (s *System) StoreForTest() *store.Store { return s.store }

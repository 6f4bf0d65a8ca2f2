package locater

import (
	"locater/internal/coarse"
	"locater/internal/store"
)

// StoreForTest exposes the underlying event store so the persistence tests
// can check store-level read-path equivalence (At, Timeline, deltas)
// between a live and a recovered system.
func (s *System) StoreForTest() *store.Store { return s.store }

// GapStats returns the device's incrementally-maintained gap sufficient
// statistics, rebuilding from the store when the incremental path gave up.
// ok is false for unknown devices.
func (s *System) GapStats(d DeviceID) (coarse.DeviceStats, bool) {
	return s.coarse.DeviceStatsOf(d)
}

// GapStatsOracle recomputes the device's gap statistics from scratch by
// replaying its stored history — the batch oracle the incremental path is
// property-tested against.
func (s *System) GapStatsOracle(d DeviceID) (coarse.DeviceStats, bool) {
	return s.coarse.BatchDeviceStats(d)
}

// Package baseline implements the two comparison systems of the paper's
// evaluation (Section 6.1). Both share Coarse-Baseline for the coarse level
// and differ in fine-level room selection:
//
//   - Coarse-Baseline: a device is outside if the enclosing gap lasts at
//     least one hour; otherwise it is inside, in the last known region.
//   - Fine-Baseline1: picks the room uniformly at random from the region's
//     candidate rooms.
//   - Fine-Baseline2: picks the room associated with the user in the
//     metadata (their preferred room, e.g. their office) when that room is
//     among the candidates; otherwise it falls back to a random candidate.
package baseline

import (
	"fmt"
	"math/rand"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// OutsideThreshold is the Coarse-Baseline gap duration at or beyond which
// the device is considered outside the building.
const OutsideThreshold = time.Hour

// CoarseResult mirrors the coarse decision of a baseline.
type CoarseResult struct {
	Outside bool
	Region  space.RegionID
}

// Coarse implements Coarse-Baseline over a store and building.
type Coarse struct {
	Building *space.Building
	Store    *store.Store
}

// Locate answers the coarse query: inside a validity interval the region is
// the connected AP's; inside a gap shorter than one hour the region is the
// last known one; otherwise the device is outside.
func (c *Coarse) Locate(d event.DeviceID, tq time.Time) (CoarseResult, error) {
	v, g, where, err := c.Store.At(d, tq)
	if err != nil {
		return CoarseResult{}, fmt.Errorf("baseline: coarse locate %s: %w", d, err)
	}
	if where == event.InValidity {
		region, ok := c.Building.RegionOf(v.Event.AP)
		if !ok {
			return CoarseResult{}, fmt.Errorf("baseline: unknown AP %s", v.Event.AP)
		}
		return CoarseResult{Region: region}, nil
	}
	if where == event.Unknown || g.Duration() >= OutsideThreshold {
		return CoarseResult{Outside: true}, nil
	}
	region, ok := c.Building.RegionOf(g.PrevEvent.AP)
	if !ok {
		return CoarseResult{}, fmt.Errorf("baseline: unknown AP %s", g.PrevEvent.AP)
	}
	return CoarseResult{Region: region}, nil
}

// FineRandom implements Fine-Baseline1: uniform random candidate room.
// It is deterministic for a given seed sequence.
type FineRandom struct {
	rng *rand.Rand
}

// NewFineRandom creates the random-room baseline with a seed.
func NewFineRandom(seed int64) *FineRandom {
	return &FineRandom{rng: rand.New(rand.NewSource(seed))}
}

// Pick selects a room uniformly at random among the region's candidates.
func (f *FineRandom) Pick(b *space.Building, d event.DeviceID, g space.RegionID) (space.RoomID, error) {
	rooms := b.CandidateRooms(g)
	if len(rooms) == 0 {
		return "", fmt.Errorf("baseline: region %s has no rooms", g)
	}
	return rooms[f.rng.Intn(len(rooms))], nil
}

// FineMetadata implements Fine-Baseline2: the user's metadata room.
type FineMetadata struct {
	// Fallback picks a room when the user has no preferred room among the
	// candidates. Defaults to the first candidate for determinism; tests
	// may substitute a FineRandom.
	Fallback func(b *space.Building, d event.DeviceID, g space.RegionID) (space.RoomID, error)
}

// Pick selects the user's preferred room when it is a candidate of the
// region; otherwise the fallback decides.
func (f *FineMetadata) Pick(b *space.Building, d event.DeviceID, g space.RegionID) (space.RoomID, error) {
	candidates := b.CandidateRooms(g)
	if len(candidates) == 0 {
		return "", fmt.Errorf("baseline: region %s has no rooms", g)
	}
	inCandidates := make(map[space.RoomID]bool, len(candidates))
	for _, r := range candidates {
		inCandidates[r] = true
	}
	for _, r := range b.PreferredRooms(string(d)) {
		if inCandidates[r] {
			return r, nil
		}
	}
	if f.Fallback != nil {
		return f.Fallback(b, d, g)
	}
	return candidates[0], nil
}

// System bundles a coarse baseline and one fine baseline into a full
// pipeline comparable to LOCATER (Baseline1 or Baseline2 of Section 6.1).
type System struct {
	Coarse *Coarse
	// PickRoom is the fine stage (Fine-Baseline1 or Fine-Baseline2).
	PickRoom func(b *space.Building, d event.DeviceID, g space.RegionID) (space.RoomID, error)
}

// Result is a baseline's full answer.
type Result struct {
	Outside bool
	Region  space.RegionID
	Room    space.RoomID
}

// Locate answers (d, t_q) end to end.
func (s *System) Locate(d event.DeviceID, tq time.Time) (Result, error) {
	cr, err := s.Coarse.Locate(d, tq)
	if err != nil {
		return Result{}, err
	}
	if cr.Outside {
		return Result{Outside: true}, nil
	}
	room, err := s.PickRoom(s.Coarse.Building, d, cr.Region)
	if err != nil {
		return Result{}, err
	}
	return Result{Region: cr.Region, Room: room}, nil
}

// NewBaseline1 builds Baseline1 = Coarse-Baseline + Fine-Baseline1.
func NewBaseline1(b *space.Building, st *store.Store, seed int64) *System {
	fr := NewFineRandom(seed)
	return &System{
		Coarse:   &Coarse{Building: b, Store: st},
		PickRoom: fr.Pick,
	}
}

// NewBaseline2 builds Baseline2 = Coarse-Baseline + Fine-Baseline2.
func NewBaseline2(b *space.Building, st *store.Store, seed int64) *System {
	fr := NewFineRandom(seed)
	fm := &FineMetadata{Fallback: fr.Pick}
	return &System{
		Coarse:   &Coarse{Building: b, Store: st},
		PickRoom: fm.Pick,
	}
}

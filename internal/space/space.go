// Package space implements LOCATER's space model: a building partitioned at
// three granularity levels (building, region, room), the WiFi access points
// whose coverage areas define the regions, and the room metadata (public vs.
// private rooms, per-device preferred rooms) that the fine-grained
// localization algorithm consumes.
//
// The model follows Section 2 of the paper:
//
//   - Building granularity distinguishes only inside (b_in) from outside
//     (b_out).
//   - A region g_j is the area covered by exactly one WiFi access point
//     wap_j; regions may overlap (a room can belong to several regions).
//   - A room is the finest localization unit and is classified as public
//     (shared facilities such as meeting rooms or lounges) or private
//     (rooms owned by specific users, such as personal offices).
package space

import (
	"fmt"
	"sort"
	"sync"
)

// RoomKind classifies a room as public or private (paper Section 2).
type RoomKind int

const (
	// Public rooms are shared facilities accessible to multiple users:
	// meeting rooms, lounges, kitchens, food courts.
	Public RoomKind = iota
	// Private rooms are restricted to or owned by certain users, such as a
	// person's office.
	Private
)

// String returns the lowercase name of the room kind.
func (k RoomKind) String() string {
	switch k {
	case Public:
		return "public"
	case Private:
		return "private"
	default:
		return fmt.Sprintf("RoomKind(%d)", int(k))
	}
}

// RoomID identifies a room within a building (e.g. "2061").
type RoomID string

// RegionID identifies a region, i.e. the coverage area of one access point.
type RegionID string

// APID identifies a WiFi access point.
type APID string

// Room is the finest localization unit.
type Room struct {
	ID   RoomID
	Kind RoomKind
	// Owner optionally names the device/person that owns a private room.
	// It is metadata only; the algorithms use PreferredRooms instead.
	Owner string
}

// AccessPoint is a WiFi access point together with the set of rooms its
// signal covers. The coverage set defines the region associated with the AP.
type AccessPoint struct {
	ID APID
	// Coverage lists the rooms reachable from this AP. Order is not
	// significant; Building normalizes it.
	Coverage []RoomID
}

// Building is the space metadata LOCATER operates on. Construct it with
// NewBuilding, which validates and indexes the rooms and access points. The
// structural metadata (rooms, APs, coverage) is immutable after
// construction; the per-device preferred-room registrations may be updated
// at run time and are internally synchronized, so a Building is safe for
// concurrent use.
type Building struct {
	name string

	rooms   map[RoomID]Room
	roomIDs []RoomID // sorted, for deterministic iteration

	aps   map[APID]*AccessPoint
	apIDs []APID // sorted

	// regionOf maps an AP to its region ID (1:1 per the paper).
	regionOf map[APID]RegionID
	apOf     map[RegionID]APID

	// coverage[ap] = sorted room IDs covered by ap.
	coverage map[APID][]RoomID
	// regionsOfRoom[room] = sorted region IDs whose AP covers the room.
	regionsOfRoom map[RoomID][]RegionID
	// overlapAPs[g] = sorted APs whose region shares at least one room with
	// g (including g's own AP): the neighborhood fine-grained neighbor
	// discovery scans.
	overlapAPs map[RegionID][]APID

	// prefMu guards the two preference maps below — the only Building
	// state that may change at run time (paper Appendix 9.1: preferred
	// rooms "can be included at run time"). Every other field is immutable
	// after NewBuilding, so queries read it without locking.
	prefMu sync.RWMutex
	// preferred[device] = sorted preferred rooms R^pf(d) for a device.
	preferred map[string][]RoomID
	// timePreferred[device] = time-of-day-scoped preference windows that
	// override the static preferred rooms (see TimePreference).
	timePreferred map[string][]TimePreference
}

// Config collects the inputs for NewBuilding.
type Config struct {
	// Name labels the building (informational).
	Name string
	// Rooms lists every room in the building.
	Rooms []Room
	// AccessPoints lists every AP and its room coverage.
	AccessPoints []AccessPoint
	// PreferredRooms maps a device identifier (MAC address) to the rooms
	// preferred by the device's owner, e.g. their office. May be nil.
	PreferredRooms map[string][]RoomID
}

// NewBuilding validates cfg and builds the indexed space model.
//
// Validation rules:
//   - at least one room and one access point;
//   - room and AP identifiers must be unique and non-empty;
//   - every coverage and preferred-room entry must reference a known room;
//   - every AP must cover at least one room.
func NewBuilding(cfg Config) (*Building, error) {
	if len(cfg.Rooms) == 0 {
		return nil, fmt.Errorf("space: building %q has no rooms", cfg.Name)
	}
	if len(cfg.AccessPoints) == 0 {
		return nil, fmt.Errorf("space: building %q has no access points", cfg.Name)
	}
	b := &Building{
		name:          cfg.Name,
		rooms:         make(map[RoomID]Room, len(cfg.Rooms)),
		aps:           make(map[APID]*AccessPoint, len(cfg.AccessPoints)),
		regionOf:      make(map[APID]RegionID, len(cfg.AccessPoints)),
		apOf:          make(map[RegionID]APID, len(cfg.AccessPoints)),
		coverage:      make(map[APID][]RoomID, len(cfg.AccessPoints)),
		regionsOfRoom: make(map[RoomID][]RegionID),
		preferred:     make(map[string][]RoomID),
	}
	for _, r := range cfg.Rooms {
		if r.ID == "" {
			return nil, fmt.Errorf("space: room with empty ID")
		}
		if _, dup := b.rooms[r.ID]; dup {
			return nil, fmt.Errorf("space: duplicate room %q", r.ID)
		}
		b.rooms[r.ID] = r
		b.roomIDs = append(b.roomIDs, r.ID)
	}
	sort.Slice(b.roomIDs, func(i, j int) bool { return b.roomIDs[i] < b.roomIDs[j] })

	for i := range cfg.AccessPoints {
		ap := cfg.AccessPoints[i]
		if ap.ID == "" {
			return nil, fmt.Errorf("space: access point with empty ID")
		}
		if _, dup := b.aps[ap.ID]; dup {
			return nil, fmt.Errorf("space: duplicate access point %q", ap.ID)
		}
		if len(ap.Coverage) == 0 {
			return nil, fmt.Errorf("space: access point %q covers no rooms", ap.ID)
		}
		cov := make([]RoomID, 0, len(ap.Coverage))
		seen := make(map[RoomID]bool, len(ap.Coverage))
		for _, rid := range ap.Coverage {
			if _, ok := b.rooms[rid]; !ok {
				return nil, fmt.Errorf("space: access point %q covers unknown room %q", ap.ID, rid)
			}
			if !seen[rid] {
				seen[rid] = true
				cov = append(cov, rid)
			}
		}
		sort.Slice(cov, func(i, j int) bool { return cov[i] < cov[j] })
		apCopy := AccessPoint{ID: ap.ID, Coverage: cov}
		b.aps[ap.ID] = &apCopy
		b.apIDs = append(b.apIDs, ap.ID)
		region := RegionID(ap.ID)
		b.regionOf[ap.ID] = region
		b.apOf[region] = ap.ID
		b.coverage[ap.ID] = cov
		for _, rid := range cov {
			b.regionsOfRoom[rid] = append(b.regionsOfRoom[rid], region)
		}
	}
	sort.Slice(b.apIDs, func(i, j int) bool { return b.apIDs[i] < b.apIDs[j] })
	for rid := range b.regionsOfRoom {
		rs := b.regionsOfRoom[rid]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	}

	// Precompute each region's overlap neighborhood: the APs whose coverage
	// shares a room with the region's, via the regionsOfRoom inverted map
	// (near-linear in total coverage, not pairwise region intersections).
	// Built once over the immutable structural metadata (rooms can belong
	// to several regions), read lock-free at query time.
	b.overlapAPs = make(map[RegionID][]APID, len(b.apIDs))
	for _, apx := range b.apIDs {
		gx := b.regionOf[apx]
		seen := make(map[APID]bool)
		var over []APID
		for _, rid := range b.coverage[apx] {
			for _, gy := range b.regionsOfRoom[rid] {
				apy := b.apOf[gy]
				if !seen[apy] {
					seen[apy] = true
					over = append(over, apy)
				}
			}
		}
		sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
		b.overlapAPs[gx] = over
	}

	for dev, rooms := range cfg.PreferredRooms {
		if dev == "" {
			return nil, fmt.Errorf("space: preferred rooms for empty device ID")
		}
		var prefs []RoomID
		seen := make(map[RoomID]bool, len(rooms))
		for _, rid := range rooms {
			if _, ok := b.rooms[rid]; !ok {
				return nil, fmt.Errorf("space: device %q prefers unknown room %q", dev, rid)
			}
			if !seen[rid] {
				seen[rid] = true
				prefs = append(prefs, rid)
			}
		}
		sort.Slice(prefs, func(i, j int) bool { return prefs[i] < prefs[j] })
		b.preferred[dev] = prefs
	}
	return b, nil
}

// Name returns the building's label.
func (b *Building) Name() string { return b.name }

// NumRooms returns the number of rooms in the building.
func (b *Building) NumRooms() int { return len(b.rooms) }

// NumAccessPoints returns the number of access points (== number of regions).
func (b *Building) NumAccessPoints() int { return len(b.aps) }

// Rooms returns all room IDs in sorted order. The slice is shared; callers
// must not modify it.
func (b *Building) Rooms() []RoomID { return b.roomIDs }

// Room looks up a room by ID.
func (b *Building) Room(id RoomID) (Room, bool) {
	r, ok := b.rooms[id]
	return r, ok
}

// AccessPoints returns all AP IDs in sorted order. The slice is shared;
// callers must not modify it.
func (b *Building) AccessPoints() []APID { return b.apIDs }

// Regions returns all region IDs (one per AP) in AP order.
func (b *Building) Regions() []RegionID {
	out := make([]RegionID, len(b.apIDs))
	for i, ap := range b.apIDs {
		out[i] = b.regionOf[ap]
	}
	return out
}

// RegionOf returns the region associated with an access point. Regions and
// APs are in 1:1 correspondence (paper Section 2), so the mapping is total
// for known APs.
func (b *Building) RegionOf(ap APID) (RegionID, bool) {
	g, ok := b.regionOf[ap]
	return g, ok
}

// APOf returns the access point whose coverage defines region g.
func (b *Building) APOf(g RegionID) (APID, bool) {
	ap, ok := b.apOf[g]
	return ap, ok
}

// CandidateRooms returns R(g): the sorted rooms covered by region g's AP.
// The slice is shared; callers must not modify it.
func (b *Building) CandidateRooms(g RegionID) []RoomID {
	ap, ok := b.apOf[g]
	if !ok {
		return nil
	}
	return b.coverage[ap]
}

// Coverage returns the sorted rooms covered by an AP. The slice is shared;
// callers must not modify it.
func (b *Building) Coverage(ap APID) []RoomID { return b.coverage[ap] }

// RegionsOfRoom returns the sorted regions whose AP covers the room. A room
// that lies in overlapping coverage areas belongs to several regions.
func (b *Building) RegionsOfRoom(r RoomID) []RegionID { return b.regionsOfRoom[r] }

// PreferredRooms returns R^pf(device): the sorted preferred rooms registered
// for the device, or nil when the owner has none. The slice is shared;
// callers must not modify it.
func (b *Building) PreferredRooms(device string) []RoomID {
	b.prefMu.RLock()
	defer b.prefMu.RUnlock()
	return b.preferred[device]
}

// SetPreferredRooms registers (or replaces) the preferred rooms for a device
// at run time. The paper notes this metadata "is not a must for LOCATER and
// can be included at run time" (Appendix 9.1). Unknown rooms are rejected.
func (b *Building) SetPreferredRooms(device string, rooms []RoomID) error {
	if device == "" {
		return fmt.Errorf("space: empty device ID")
	}
	var prefs []RoomID
	seen := make(map[RoomID]bool, len(rooms))
	for _, rid := range rooms {
		if _, ok := b.rooms[rid]; !ok {
			return fmt.Errorf("space: device %q prefers unknown room %q", device, rid)
		}
		if !seen[rid] {
			seen[rid] = true
			prefs = append(prefs, rid)
		}
	}
	sort.Slice(prefs, func(i, j int) bool { return prefs[i] < prefs[j] })
	b.prefMu.Lock()
	b.preferred[device] = prefs
	b.prefMu.Unlock()
	return nil
}

// IsPublic reports whether the room exists and is public.
func (b *Building) IsPublic(r RoomID) bool {
	room, ok := b.rooms[r]
	return ok && room.Kind == Public
}

// IsPrivate reports whether the room exists and is private.
func (b *Building) IsPrivate(r RoomID) bool {
	room, ok := b.rooms[r]
	return ok && room.Kind == Private
}

// OverlappingAPs returns R^ap(g): the sorted access points whose region
// shares at least one room with region g, g's own AP included. This is the
// neighborhood fine-grained neighbor discovery restricts its candidate scan
// to — a device can only be a neighbor (Algorithm 2's overlap condition) if
// it was seen at one of these APs. Unknown regions return nil. The slice is
// shared; callers must not modify it.
func (b *Building) OverlappingAPs(g RegionID) []APID {
	return b.overlapAPs[g]
}

// OverlappingRegions reports whether two regions share at least one room.
// Algorithm 2's neighbor definition requires R(g_x) ∩ R(g_y) ≠ ∅.
func (b *Building) OverlappingRegions(gx, gy RegionID) bool {
	rx := b.CandidateRooms(gx)
	ry := b.CandidateRooms(gy)
	i, j := 0, 0
	for i < len(rx) && j < len(ry) {
		switch {
		case rx[i] == ry[j]:
			return true
		case rx[i] < ry[j]:
			i++
		default:
			j++
		}
	}
	return false
}

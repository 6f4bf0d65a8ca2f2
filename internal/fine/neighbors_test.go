package fine

import (
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// TestNeighborDiscoveryIsRegionScoped: discovery must ask the store only
// for devices seen at APs whose region overlaps the query region, and a
// device active solely in a non-overlapping region must not be considered
// at all (its affinity provider is never even consulted).
func TestNeighborDiscoveryIsRegionScoped(t *testing.T) {
	// Two disjoint neighborhoods: {apX1, apX2} share room x2; apY covers
	// only its own rooms.
	b, err := space.NewBuilding(space.Config{
		Rooms: []space.Room{{ID: "x1"}, {ID: "x2"}, {ID: "x3"}, {ID: "y1"}, {ID: "y2"}},
		AccessPoints: []space.AccessPoint{
			{ID: "apX1", Coverage: []space.RoomID{"x1", "x2"}},
			{ID: "apX2", Coverage: []space.RoomID{"x2", "x3"}},
			{ID: "apY", Coverage: []space.RoomID{"y1", "y2"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gX1, _ := b.RegionOf("apX1")
	if got := b.OverlappingAPs(gX1); len(got) != 2 || got[0] != "apX1" || got[1] != "apX2" {
		t.Fatalf("OverlappingAPs(%s) = %v, want [apX1 apX2]", gX1, got)
	}

	st := setupScene(t, b, map[event.DeviceID]space.APID{
		"d1":   "apX1",
		"near": "apX2",
		"far":  "apY",
	})
	aff := fixedAffinity{pair("d1", "near"): 0.8, pair("d1", "far"): 0.8}
	l := New(b, st, aff, nil, Options{UseStopConditions: false})
	res, err := l.Locate("d1", gX1, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNeighbors != 1 {
		t.Fatalf("TotalNeighbors = %d, want only the overlapping-region device", res.TotalNeighbors)
	}
	if len(res.LocalGraph) != 1 || res.LocalGraph[0].To != "near" {
		t.Errorf("neighbor set = %+v, want [near]", res.LocalGraph)
	}

	// The store-level lookup itself must already be scoped: the far device
	// is filtered by discovery, not by a post-hoc region check.
	active := st.ActiveDevicesAt(b.OverlappingAPs(gX1), t0.Add(-time.Hour), t0.Add(time.Hour))
	want := []event.DeviceID{"d1", "near"}
	if len(active) != 2 || active[0] != want[0] || active[1] != want[1] {
		t.Errorf("scoped ActiveDevicesAt = %v, want %v", active, want)
	}
}

// stubSource is a NeighborSource double recording the requested scope.
type stubSource struct {
	gotAPs     []space.APID
	gotStart   time.Time
	gotEnd     time.Time
	calls      int
	answerWith []event.DeviceID
}

func (s *stubSource) ActiveDevicesAt(aps []space.APID, start, end time.Time) []event.DeviceID {
	s.calls++
	s.gotAPs = aps
	s.gotStart, s.gotEnd = start, end
	return s.answerWith
}

// TestSetNeighborSource: an injected source replaces the store for
// discovery and receives the query region's overlap neighborhood.
func TestSetNeighborSource(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{"d1": "wap3"})
	l := New(b, st, fixedAffinity{}, nil, Options{})
	src := &stubSource{}
	l.SetNeighborSource(src)
	g3, _ := b.RegionOf("wap3")
	if _, err := l.Locate("d1", g3, t0); err != nil {
		t.Fatal(err)
	}
	if src.calls != 1 {
		t.Fatalf("injected source consulted %d times, want 1", src.calls)
	}
	want := b.OverlappingAPs(g3)
	if len(src.gotAPs) != len(want) {
		t.Errorf("source got AP scope %v, want %v", src.gotAPs, want)
	}
	if !src.gotStart.Before(t0) || !src.gotEnd.After(t0) {
		t.Errorf("discovery window [%v, %v] does not surround t_q", src.gotStart, src.gotEnd)
	}
}

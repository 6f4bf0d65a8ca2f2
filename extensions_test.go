package locater_test

import (
	"testing"
	"time"

	"locater"
)

// TestAddRoomLabelSharpening: crowd-sourced labels (footnote 7 extension)
// must steer room predictions for a device whose metadata prior is wrong.
func TestAddRoomLabelSharpening(t *testing.T) {
	ds := buildDataset(t, 7)
	sys := newSystem(t, ds, locater.Config{})

	dev := ds.People[0].Device
	// Find a moment the device is truly inside.
	wins := ds.Truth.InsideWindows(dev, simStart.AddDate(0, 0, 5), simStart.AddDate(0, 0, 7))
	if len(wins) == 0 {
		t.Skip("no inside windows")
	}
	tq := wins[0].Start.Add(wins[0].End.Sub(wins[0].Start) / 2)

	before, err := sys.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}
	if before.Outside {
		t.Skip("coarse stage answered outside; label test needs an inside answer")
	}
	// Pick a different candidate room of the same region and label it
	// heavily: the posterior must follow the labels.
	var target locater.RoomID
	for _, r := range ds.Building.CandidateRooms(before.Region) {
		if r != before.Room {
			target = r
			break
		}
	}
	if target == "" {
		t.Skip("single-room region")
	}
	for i := 0; i < 25; i++ {
		if err := sys.AddRoomLabel(dev, target, tq.Add(-time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := sys.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}
	if after.Outside {
		t.Fatal("labels changed the coarse answer")
	}
	if after.Room != target {
		t.Errorf("after 25 labels room = %s, want %s", after.Room, target)
	}

	// Unknown room rejected.
	if err := sys.AddRoomLabel(dev, "no-such-room", tq); err == nil {
		t.Error("unknown room label should fail")
	}
	// A time int64 nanoseconds cannot hold is refused: the log would keep
	// it wrapped.
	if err := sys.AddRoomLabel(dev, target, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)); err == nil {
		t.Error("label at 2300 should fail")
	}
}

// TestSetTimePreferredRooms: the time-dependent preferred-room extension
// must switch the prior's argmax by time of day.
func TestSetTimePreferredRooms(t *testing.T) {
	ds := buildDataset(t, 7)
	sys := newSystem(t, ds, locater.Config{})

	dev := ds.People[0].Device
	base := ds.People[0].BaseRoom
	// Pick a lunch room: any public candidate room of a region covering
	// the base room.
	regions := ds.Building.RegionsOfRoom(base)
	if len(regions) == 0 {
		t.Skip("base room uncovered")
	}
	var lunch locater.RoomID
	for _, r := range ds.Building.CandidateRooms(regions[0]) {
		if r != base && ds.Building.IsPublic(r) {
			lunch = r
			break
		}
	}
	if lunch == "" {
		t.Skip("no public room in the region")
	}
	err := sys.SetTimePreferredRooms(dev, []locater.TimePreference{
		{StartMinute: 12 * 60, EndMinute: 13 * 60, Rooms: []locater.RoomID{lunch}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid window rejected.
	err = sys.SetTimePreferredRooms(dev, []locater.TimePreference{
		{StartMinute: -5, EndMinute: 60, Rooms: []locater.RoomID{lunch}},
	})
	if err == nil {
		t.Error("invalid window should fail")
	}
	// The building-level view reflects the registration.
	if got := ds.Building.PreferredRoomsAt(string(dev), simStart.Add(12*time.Hour+30*time.Minute)); len(got) != 1 || got[0] != lunch {
		t.Errorf("lunch prefs = %v, want [%s]", got, lunch)
	}
	if got := ds.Building.PreferredRoomsAt(string(dev), simStart.Add(9*time.Hour)); len(got) != 1 || got[0] != base {
		t.Errorf("morning prefs = %v, want [%s]", got, base)
	}
}

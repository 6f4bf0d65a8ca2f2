package sim

import (
	"slices"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

var simStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC) // Monday

// smallScenario builds a compact deterministic scenario for tests.
func smallScenario(t *testing.T) Scenario {
	t.Helper()
	b, err := GridBuilding("t", 24, 4, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	pub := publicRooms(b, 2)
	return Scenario{
		Name:     "small",
		Building: b,
		Profiles: []Profile{{
			Name: "staff", Count: 6, HasOffice: true, BaseStay: 0.7,
			PresenceProb: 0.9,
			ArrivalMean:  9 * time.Hour, ArrivalStd: 30 * time.Minute,
			DepartureMean: 17 * time.Hour, DepartureStd: 30 * time.Minute,
			AttendProb: 0.8, MidDayExitProb: 0.4,
			EmitPeriod: 10 * time.Minute, EmitProb: 0.7,
			SilenceProb: 0.05,
		}},
		Events: []EventTemplate{{
			Name: "sync", Room: pub[0],
			Start: 11 * time.Hour, Duration: time.Hour,
			Days:     []time.Weekday{time.Tuesday},
			Profiles: map[string]float64{"staff": 0.9},
			Capacity: 4,
		}},
	}
}

func generateSmall(t *testing.T, days int, seed int64) *Dataset {
	t.Helper()
	sc := smallScenario(t)
	ds, err := Generate(sc.Config(simStart, days, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateValidation(t *testing.T) {
	sc := smallScenario(t)
	if _, err := Generate(Config{Building: nil, Profiles: sc.Profiles, Days: 1}); err == nil {
		t.Error("nil building should fail")
	}
	if _, err := Generate(Config{Building: sc.Building, Profiles: sc.Profiles, Days: 0}); err == nil {
		t.Error("zero days should fail")
	}
	if _, err := Generate(Config{Building: sc.Building, Days: 1}); err == nil {
		t.Error("no profiles should fail")
	}
	bad := sc
	bad.Events = []EventTemplate{{Name: "x", Room: "nope"}}
	if _, err := Generate(Config{Building: bad.Building, Profiles: bad.Profiles, Events: bad.Events, Days: 1}); err == nil {
		t.Error("unknown event room should fail")
	}
	badProf := sc
	badProf.Profiles = []Profile{{Name: "p", Count: 0}}
	if _, err := Generate(Config{Building: badProf.Building, Profiles: badProf.Profiles, Days: 1}); err == nil {
		t.Error("zero-count profile should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generateSmall(t, 3, 42)
	b := generateSmall(t, 3, 42)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Device != eb.Device || !ea.Time.Equal(eb.Time) || ea.AP != eb.AP {
			t.Fatalf("event %d differs: %v vs %v", i, ea, eb)
		}
	}
	c := generateSmall(t, 3, 43)
	if len(a.Events) == len(c.Events) {
		same := true
		for i := range a.Events {
			if !a.Events[i].Time.Equal(c.Events[i].Time) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestEventsSortedAndIDed(t *testing.T) {
	ds := generateSmall(t, 3, 1)
	if len(ds.Events) == 0 {
		t.Fatal("no events generated")
	}
	for i := 1; i < len(ds.Events); i++ {
		if ds.Events[i].Time.Before(ds.Events[i-1].Time) {
			t.Fatal("events not sorted")
		}
	}
	for i, e := range ds.Events {
		if e.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d", i, e.ID)
		}
		if e.Device == "" || e.AP == "" || e.Time.IsZero() {
			t.Fatalf("malformed event %v", e)
		}
	}
}

// TestTruthConsistency: every connectivity event must occur while its device
// is inside, in a room covered by the event's AP region set... the emission
// model only uses covering APs, so the event AP must cover the truth room.
func TestTruthConsistency(t *testing.T) {
	ds := generateSmall(t, 3, 7)
	b := ds.Building
	for _, e := range ds.Events {
		seg, ok := ds.Truth.At(e.Device, e.Time)
		if !ok {
			t.Fatalf("no ground truth for %s at %v", e.Device, e.Time)
		}
		if seg.Outside {
			t.Fatalf("event %v emitted while outside", e)
		}
		covered := false
		for _, r := range b.Coverage(e.AP) {
			if r == seg.Room {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("event AP %s does not cover truth room %s", e.AP, seg.Room)
		}
	}
}

// TestTruthSegmentsDisjoint: a person is in exactly one place at a time.
func TestTruthSegmentsDisjoint(t *testing.T) {
	ds := generateSmall(t, 3, 9)
	for _, d := range ds.Truth.Devices() {
		segs := ds.Truth.Segments(d)
		for i := 1; i < len(segs); i++ {
			if segs[i].Start.Before(segs[i-1].End) {
				t.Fatalf("device %s has overlapping segments: %v then %v", d, segs[i-1], segs[i])
			}
		}
		for _, s := range segs {
			if !s.Start.Before(s.End) {
				t.Fatalf("degenerate segment %v", s)
			}
			if !s.Outside && s.Room == "" {
				t.Fatalf("inside segment with no room: %v", s)
			}
		}
	}
}

func TestTruthAt(t *testing.T) {
	ds := generateSmall(t, 2, 11)
	d := ds.People[0].Device
	// Midnight: outside (overnight, between segments or before first).
	seg, ok := ds.Truth.At(d, simStart.Add(2*time.Hour))
	if !ok || !seg.Outside {
		t.Errorf("2am should be outside: %+v %v", seg, ok)
	}
	// Unknown device.
	if _, ok := ds.Truth.At("ghost", simStart); ok {
		t.Error("unknown device should not be known to the oracle")
	}
}

func TestCapacityRespected(t *testing.T) {
	sc := smallScenario(t)
	// One Tuesday with capacity 4 of 6 possible attendees.
	ds, err := Generate(sc.Config(simStart, 7, 3))
	if err != nil {
		t.Fatal(err)
	}
	tuesday := simStart.AddDate(0, 0, 1)
	eventRoom := sc.Events[0].Room
	middle := tuesday.Add(11*time.Hour + 30*time.Minute)
	count := 0
	for _, d := range ds.Truth.Devices() {
		if seg, ok := ds.Truth.At(d, middle); ok && !seg.Outside && seg.Room == eventRoom {
			count++
		}
	}
	if count > sc.Events[0].Capacity {
		t.Errorf("%d attendees exceed capacity %d", count, sc.Events[0].Capacity)
	}
}

func TestPredictabilityMeasured(t *testing.T) {
	ds := generateSmall(t, 5, 13)
	for _, p := range ds.People {
		frac, ok := ds.Predictability[p.Device]
		if !ok {
			t.Fatalf("no predictability for %s", p.Device)
		}
		if frac < 0 || frac > 1 {
			t.Fatalf("predictability %v out of range", frac)
		}
		// HasOffice profile: base room assigned and registered as metadata.
		if p.BaseRoom == "" {
			t.Fatalf("person %v has no base room", p)
		}
		prefs := ds.Building.PreferredRooms(string(p.Device))
		if len(prefs) != 1 || prefs[0] != p.BaseRoom {
			t.Fatalf("preferred rooms %v, want [%s]", prefs, p.BaseRoom)
		}
	}
}

func TestOccupancyOracle(t *testing.T) {
	ds := generateSmall(t, 2, 17)
	noon := simStart.Add(12 * time.Hour)
	occ := ds.Truth.OccupancyAt(noon)
	total := 0
	for room, n := range occ {
		if n <= 0 {
			t.Errorf("room %s has non-positive occupancy %d", room, n)
		}
		total += n
	}
	if total == 0 {
		t.Error("nobody inside at noon on a weekday — implausible for 6 staff")
	}
}

func TestInsideWindows(t *testing.T) {
	ds := generateSmall(t, 2, 19)
	d := ds.People[0].Device
	wins := ds.Truth.InsideWindows(d, simStart, simStart.AddDate(0, 0, 2))
	if len(wins) == 0 {
		t.Fatal("no inside windows for a present staff member")
	}
	for _, w := range wins {
		if w.Outside {
			t.Fatal("InsideWindows returned an outside segment")
		}
	}
}

func TestScenarioBuilders(t *testing.T) {
	builders := map[string]func(int) (Scenario, error){
		"office":     Office,
		"university": University,
		"mall":       Mall,
		"airport":    Airport,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			sc, err := build(4)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Building == nil || len(sc.Profiles) == 0 {
				t.Fatal("incomplete scenario")
			}
			for _, p := range sc.Profiles {
				if p.Count <= 0 {
					t.Errorf("profile %s has count %d", p.Name, p.Count)
				}
			}
			ds, err := Generate(sc.Config(simStart, 2, 5))
			if err != nil {
				t.Fatal(err)
			}
			if len(ds.Events) == 0 {
				t.Error("scenario generated no connectivity")
			}
		})
	}
}

func TestDBHScenario(t *testing.T) {
	sc, err := DBH(2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Building.NumRooms() != 300 || sc.Building.NumAccessPoints() != 64 {
		t.Errorf("DBH dims = %d rooms, %d APs", sc.Building.NumRooms(), sc.Building.NumAccessPoints())
	}
	if len(sc.Profiles) != 4 {
		t.Errorf("DBH profiles = %d, want 4 predictability classes", len(sc.Profiles))
	}
	ds, err := Generate(sc.Config(simStart, 3, 21))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.People) != 8 {
		t.Errorf("population = %d, want 8", len(ds.People))
	}
}

func TestGridBuildingCoverage(t *testing.T) {
	b, err := GridBuilding("g", 30, 5, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Every AP covers exactly 8 rooms.
	for _, ap := range b.AccessPoints() {
		if got := len(b.Coverage(ap)); got != 8 {
			t.Errorf("AP %s covers %d rooms, want 8", ap, got)
		}
	}
	// Every room is covered by at least one AP... the grid overlaps by
	// construction: check room 1 and the last room.
	rooms := b.Rooms()
	if len(b.RegionsOfRoom(rooms[0])) == 0 {
		t.Error("first room uncovered")
	}
	if len(b.RegionsOfRoom(rooms[len(rooms)-1])) == 0 {
		t.Error("last room uncovered")
	}
	if _, err := GridBuilding("g", 0, 5, 8, 10); err == nil {
		t.Error("invalid dims should fail")
	}
}

func TestDeviceIDsUnique(t *testing.T) {
	ds := generateSmall(t, 1, 23)
	seen := map[event.DeviceID]bool{}
	for _, p := range ds.People {
		if seen[p.Device] {
			t.Fatalf("duplicate device ID %s", p.Device)
		}
		seen[p.Device] = true
	}
}

func TestGapStructureExists(t *testing.T) {
	// The emission model must produce gaps (sporadic logs), otherwise the
	// coarse stage has nothing to repair.
	ds := generateSmall(t, 3, 29)
	d := ds.People[0].Device
	var recs []event.Rec
	var aps []space.APID
	for _, e := range ds.Events {
		if e.Device == d {
			recs = append(recs, event.Rec{Nanos: e.Time.UnixNano(), ID: e.ID, AP: uint32(len(aps))})
			aps = append(aps, e.AP)
		}
	}
	slices.SortFunc(recs, event.Rec.Compare)
	if len(event.Gaps(d, recs, aps, 10*time.Minute)) == 0 {
		t.Error("no gaps in simulated log — sporadicity model broken")
	}
}

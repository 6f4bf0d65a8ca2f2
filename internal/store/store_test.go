package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

var t0 = time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)

func mk(dev string, offset time.Duration, ap string) event.Event {
	return event.Event{Device: event.DeviceID(dev), Time: t0.Add(offset), AP: space.APID(ap)}
}

func TestIngestAssignsIDs(t *testing.T) {
	s := New(0)
	n, err := s.Ingest([]event.Event{mk("a", 0, "x"), mk("a", time.Minute, "x")})
	if err != nil || n != 2 {
		t.Fatalf("Ingest = %d, %v", n, err)
	}
	evs := s.Events("a")
	if evs[0].ID == 0 || evs[1].ID == 0 || evs[0].ID == evs[1].ID {
		t.Errorf("IDs not assigned uniquely: %v", evs)
	}
	// Pre-set IDs preserved and sequence advances past them.
	e := mk("a", 2*time.Minute, "x")
	e.ID = 100
	if err := s.IngestOne(e); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestOne(mk("a", 3*time.Minute, "x")); err != nil {
		t.Fatal(err)
	}
	evs = s.Events("a")
	if evs[3].ID <= 100 {
		t.Errorf("sequence did not advance past explicit ID: %v", evs[3].ID)
	}
}

func TestIngestValidation(t *testing.T) {
	s := New(0)
	if _, err := s.Ingest([]event.Event{{Device: "", Time: t0, AP: "x"}}); err == nil {
		t.Error("empty device should fail")
	}
	if _, err := s.Ingest([]event.Event{{Device: "d", Time: t0, AP: ""}}); err == nil {
		t.Error("empty AP should fail")
	}
	if _, err := s.Ingest([]event.Event{{Device: "d", AP: "x"}}); err == nil {
		t.Error("zero time should fail")
	}
}

func TestOutOfOrderIngest(t *testing.T) {
	s := New(0)
	for i := 10; i > 0; i-- {
		if err := s.IngestOne(mk("d", time.Duration(i)*time.Minute, "x")); err != nil {
			t.Fatal(err)
		}
	}
	evs := s.Events("d")
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			t.Fatalf("events not sorted after out-of-order ingest: %v", evs)
		}
	}
}

func TestDeltas(t *testing.T) {
	s := New(0)
	if got := s.Delta("d"); got != DefaultDelta {
		t.Errorf("default delta = %v", got)
	}
	if err := s.SetDelta("d", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := s.Delta("d"); got != 5*time.Minute {
		t.Errorf("delta = %v", got)
	}
	if err := s.SetDelta("d", 0); err == nil {
		t.Error("zero delta should fail")
	}
	s2 := New(7 * time.Minute)
	if got := s2.Delta("whatever"); got != 7*time.Minute {
		t.Errorf("configured default = %v", got)
	}
}

func TestEstimateDeltas(t *testing.T) {
	s := New(0)
	for i := 0; i < 30; i++ {
		if err := s.IngestOne(mk("d", time.Duration(i)*4*time.Minute, "x")); err != nil {
			t.Fatal(err)
		}
	}
	s.EstimateDeltas(0.9, time.Minute, time.Hour)
	if got := s.Delta("d"); got != 4*time.Minute {
		t.Errorf("estimated delta = %v, want 4m", got)
	}
}

func TestBoundsAndCounts(t *testing.T) {
	s := New(0)
	if _, _, ok := s.TimeBounds(); ok {
		t.Error("empty store should have no bounds")
	}
	s.Ingest([]event.Event{mk("a", time.Hour, "x"), mk("b", 0, "y"), mk("a", 2*time.Hour, "x")})
	min, max, ok := s.TimeBounds()
	if !ok || !min.Equal(t0) || !max.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("bounds = %v %v %v", min, max, ok)
	}
	if s.NumEvents() != 3 || s.NumDevices() != 2 {
		t.Errorf("counts = %d events %d devices", s.NumEvents(), s.NumDevices())
	}
	if got := s.Devices(); !reflect.DeepEqual(got, []event.DeviceID{"a", "b"}) {
		t.Errorf("Devices = %v", got)
	}
}

func TestEventsBetween(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		s.IngestOne(mk("d", time.Duration(i)*10*time.Minute, "x"))
	}
	got := s.EventsBetween("d", t0.Add(15*time.Minute), t0.Add(45*time.Minute))
	if len(got) != 3 {
		t.Errorf("EventsBetween returned %d, want 3", len(got))
	}
	if got := s.EventsBetween("nope", t0, t0.Add(time.Hour)); got != nil {
		t.Error("unknown device should return nil")
	}
}

func TestAtAndCurrentAP(t *testing.T) {
	s := New(0)
	s.SetDelta("d", 10*time.Minute)
	s.Ingest([]event.Event{mk("d", 0, "apA"), mk("d", 2*time.Hour, "apB")})

	v, g, w, err := s.At("d", t0.Add(5*time.Minute))
	if err != nil || w != event.InValidity || v.Event.AP != "apA" {
		t.Fatalf("At(5m) = %v %v %d %v", v, g, w, err)
	}
	ap, ok := s.CurrentAP("d", t0.Add(5*time.Minute))
	if !ok || ap != "apA" {
		t.Errorf("CurrentAP = %v %v", ap, ok)
	}
	_, g, w, err = s.At("d", t0.Add(time.Hour))
	if err != nil || w != event.InGap || g.PrevEvent.AP != "apA" {
		t.Fatalf("At(1h) should be a gap: %v %d %v", g, w, err)
	}
	if _, ok := s.CurrentAP("d", t0.Add(time.Hour)); ok {
		t.Error("CurrentAP inside a gap should fail")
	}
}

func TestActiveDevices(t *testing.T) {
	s := New(0)
	s.Ingest([]event.Event{
		mk("a", 0, "x"),
		mk("b", 30*time.Minute, "y"),
		mk("c", 3*time.Hour, "z"),
	})
	got := s.ActiveDevicesAt(nil, t0.Add(-time.Minute), t0.Add(time.Hour))
	if !reflect.DeepEqual(got, []event.DeviceID{"a", "b"}) {
		t.Errorf("ActiveDevices = %v", got)
	}
	got = s.ActiveDevicesAt(nil, t0.Add(4*time.Hour), t0.Add(5*time.Hour))
	if len(got) != 0 {
		t.Errorf("late window should be empty, got %v", got)
	}
}

func TestLastFirstEvents(t *testing.T) {
	s := New(0)
	s.Ingest([]event.Event{mk("d", 0, "x"), mk("d", time.Hour, "y")})
	e, ok := s.LastEventAtOrBefore("d", t0.Add(30*time.Minute))
	if !ok || e.AP != "x" {
		t.Errorf("LastEventAtOrBefore = %v %v", e, ok)
	}
	if _, ok := s.LastEventAtOrBefore("d", t0.Add(-time.Minute)); ok {
		t.Error("nothing before first event")
	}
	if e, ok := s.LastEventAtOrBefore("d", t0.Add(2*time.Hour)); !ok || e.AP != "y" {
		t.Errorf("LastEventAtOrBefore after the last event = %v %v", e, ok)
	}
	if _, ok := s.LastEventAtOrBefore("zzz", t0); ok {
		t.Error("unknown device")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				dev := fmt.Sprintf("d%d", w)
				s.IngestOne(mk(dev, time.Duration(i)*time.Minute, "x"))
				s.Events(event.DeviceID(dev))
				s.ActiveDevicesAt(nil, t0, t0.Add(time.Hour))
				s.NumEvents()
			}
		}(w)
	}
	wg.Wait()
	if s.NumEvents() != 400 {
		t.Errorf("expected 400 events, got %d", s.NumEvents())
	}
}

// TestConcurrentOutOfOrderReads hammers every read method while another
// goroutine ingests *out-of-order* events, repeatedly knocking logs out of
// their sorted state. This exercises withSortedLog's shared-lock fast path
// racing against its exclusive sort-upgrade path (run under -race in CI).
func TestConcurrentOutOfOrderReads(t *testing.T) {
	s := New(0)
	const devices = 8
	for d := 0; d < devices; d++ {
		s.IngestOne(mk(fmt.Sprintf("d%d", d), time.Hour, "x"))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// Earlier than the seed event: marks the log unsorted.
			dev := fmt.Sprintf("d%d", i%devices)
			s.IngestOne(mk(dev, time.Duration(200-i)*time.Second, "x"))
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dev := event.DeviceID(fmt.Sprintf("d%d", (i+w)%devices))
				tq := t0.Add(time.Duration(i%90) * time.Minute)
				if _, _, _, err := s.At(dev, tq); err != nil {
					t.Errorf("At: %v", err)
					return
				}
				evs := s.Events(dev)
				for j := 1; j < len(evs); j++ {
					if evs[j].Before(evs[j-1]) {
						t.Errorf("Events(%s) unsorted at %d", dev, j)
						return
					}
				}
				s.EventsBetween(dev, t0, t0.Add(time.Hour))
				s.LastEventAtOrBefore(dev, tq)
				s.ActiveDevicesAt(nil, t0, t0.Add(time.Hour))
			}
		}(w)
	}
	wg.Wait()
	if got := s.NumEvents(); got != devices+200 {
		t.Errorf("NumEvents = %d, want %d", got, devices+200)
	}
}

// Property: EventsBetween equals a naive scan over Events.
func TestEventsBetweenProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			s.IngestOne(mk("d", time.Duration(rng.Intn(10000))*time.Second, "x"))
		}
		for trial := 0; trial < 20; trial++ {
			a := t0.Add(time.Duration(rng.Intn(10000)) * time.Second)
			b := a.Add(time.Duration(rng.Intn(5000)) * time.Second)
			got := s.EventsBetween("d", a, b)
			var want []event.Event
			for _, e := range s.Events("d") {
				if !e.Time.Before(a) && !e.Time.After(b) {
					want = append(want, e)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if !got[i].Time.Equal(want[i].Time) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ActiveDevices equals the naive per-device window check.
func TestActiveDevicesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		for d := 0; d < 5; d++ {
			for i := 0; i < rng.Intn(20); i++ {
				s.IngestOne(mk(fmt.Sprintf("d%d", d), time.Duration(rng.Intn(10000))*time.Second, "x"))
			}
		}
		a := t0.Add(time.Duration(rng.Intn(10000)) * time.Second)
		b := a.Add(time.Duration(rng.Intn(5000)) * time.Second)
		got := s.ActiveDevicesAt(nil, a, b)
		gotSet := map[event.DeviceID]bool{}
		for _, d := range got {
			gotSet[d] = true
		}
		for _, d := range s.Devices() {
			want := false
			for _, e := range s.Events(d) {
				if !e.Time.Before(a) && !e.Time.After(b) {
					want = true
					break
				}
			}
			if want != gotSet[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScanEvents: the zero-copy visitor must see exactly the EventsBetween
// window (sorted, even after out-of-order ingest), receive the device's δ,
// be invoked with an empty slice for an empty window, and not be invoked at
// all for unknown devices.
func TestScanEvents(t *testing.T) {
	s := New(0)
	base := time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)
	// Ingest out of order so the scan has to trigger the lazy re-sort.
	s.Ingest([]event.Event{
		{Device: "d", Time: base.Add(30 * time.Minute), AP: "ap2"},
		{Device: "d", Time: base, AP: "ap1"},
		{Device: "d", Time: base.Add(10 * time.Minute), AP: "ap1"},
	})
	s.SetDelta("d", 7*time.Minute)

	start, end := base, base.Add(15*time.Minute)
	var got []event.Event
	var gotDelta time.Duration
	calls := 0
	found := s.ScanEvents("d", start, end, func(recs []event.Rec, aps []space.APID, delta time.Duration) {
		calls++
		for _, r := range recs { // copy out: the slice must not be retained
			got = append(got, r.Event("d", aps))
		}
		gotDelta = delta
	})
	if !found || calls != 1 {
		t.Fatalf("found=%v calls=%d", found, calls)
	}
	if gotDelta != 7*time.Minute {
		t.Errorf("delta = %v", gotDelta)
	}
	want := s.EventsBetween("d", start, end)
	if len(got) != 2 || len(want) != 2 || got[0].AP != want[0].AP || !got[1].Time.Equal(want[1].Time) {
		t.Errorf("scan window = %v, EventsBetween = %v", got, want)
	}
	if got[0].Time.After(got[1].Time) {
		t.Error("scan saw unsorted events")
	}

	// Empty window: fn runs with an empty slice.
	calls = 0
	empty := true
	found = s.ScanEvents("d", base.Add(2*time.Hour), base.Add(3*time.Hour), func(recs []event.Rec, _ []space.APID, _ time.Duration) {
		calls++
		empty = len(recs) == 0
	})
	if !found || calls != 1 || !empty {
		t.Errorf("empty window: found=%v calls=%d empty=%v", found, calls, empty)
	}

	// Unknown device: fn not invoked, found=false.
	if s.ScanEvents("ghost", start, end, func([]event.Rec, []space.APID, time.Duration) { t.Error("fn called for ghost") }) {
		t.Error("ScanEvents(ghost) = true")
	}
}

//go:build !race

package fine

import (
	"fmt"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// The allocation gates run without -race, which instruments allocations.

// maxLocateAllocs bounds one warm Locate on TestLocateAllocs' scene: the
// answer's posterior map and local graph, and neighbor discovery's result.
// Room priors, the queried device's and its neighbors', are written into the
// pooled scratch, and resolving the candidates, online or in a gap,
// allocates nothing.
const maxLocateAllocs = 7

// TestLocateAllocs pins the allocations of a warm fine-stage query over a
// segmented store: twelve neighbors with sealed history, half online at t_q
// (from the head, after a sealed segment) and half in a gap handed to the
// coarse resolver.
func TestLocateAllocs(t *testing.T) {
	b := paperBuilding(t)
	st := store.New(0)
	if err := st.ConfigureSegments(store.SegmentConfig{MaxEvents: 4}); err != nil {
		t.Fatal(err)
	}
	aff := fixedAffinity{}
	var evs []event.Event
	for k := 8; k >= 0; k-- {
		evs = append(evs, event.Event{Device: "d1", Time: t0.Add(-time.Duration(k) * time.Hour), AP: "wap3"})
	}
	for i := 0; i < 12; i++ {
		d := event.DeviceID(fmt.Sprintf("n%02d", i))
		aff[pair("d1", d)] = 0.1 + 0.8*float64(i%7)/7
		for k := 8; k >= 1; k-- {
			evs = append(evs, event.Event{Device: d, Time: t0.Add(-time.Duration(k)*time.Hour + time.Duration(i)*time.Minute), AP: "wap3"})
		}
		if i%2 == 0 {
			evs = append(evs, event.Event{Device: d, Time: t0, AP: "wap3"})
		} else {
			// A gap around t0 (δ is 10 minutes).
			evs = append(evs,
				event.Event{Device: d, Time: t0.Add(-30 * time.Minute), AP: "wap3"},
				event.Event{Device: d, Time: t0.Add(30 * time.Minute), AP: "wap3"})
		}
	}
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	l := New(b, st, aff, nil, Options{UseStopConditions: true})
	g3, _ := b.RegionOf("wap3")
	resolved := 0
	l.SetCoarseResolver(func(event.DeviceID, time.Time) (space.RegionID, bool) {
		resolved++
		return g3, true
	})
	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNeighbors != 12 || resolved != 6 {
		t.Fatalf("scene has %d neighbors, %d resolved by the coarse stage; want 12 and 6", res.TotalNeighbors, resolved)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := l.Locate("d1", g3, t0); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxLocateAllocs {
		t.Errorf("Locate allocates %v times per call, want at most %d", n, maxLocateAllocs)
	}
}

// TestBatchDeviceAffinityAllocs: a warm batched affinity sweep allocates
// nothing — the queried device's window goes into the pooled copy, the
// candidates' windows are scanned in place, and out is reused — also when
// the windows span sealed segments and the head.
func TestBatchDeviceAffinityAllocs(t *testing.T) {
	st := store.New(0)
	if err := st.ConfigureSegments(store.SegmentConfig{MaxEvents: 4}); err != nil {
		t.Fatal(err)
	}
	var evs []event.Event
	cands := []event.DeviceID{"n0", "n1", "n2", "ghost"}
	for k := 0; k < 10; k++ {
		at := t0.Add(time.Duration(k) * 10 * time.Minute)
		evs = append(evs, event.Event{Device: "d1", Time: at, AP: "wap3"})
		for i, c := range cands[:3] {
			evs = append(evs, event.Event{Device: c, Time: at.Add(time.Duration(i) * time.Minute), AP: space.APID(fmt.Sprintf("wap%d", 3+i%2))})
		}
	}
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	start, end := t0, t0.Add(2*time.Hour)
	out := BatchDeviceAffinity(st, "d1", cands, start, end, nil)
	if out[0] == 0 || out[3] != 0 {
		t.Fatalf("affinities %v: want n0 > 0 and the ghost 0", out)
	}
	if n := testing.AllocsPerRun(100, func() { out = BatchDeviceAffinity(st, "d1", cands, start, end, out) }); n != 0 {
		t.Errorf("BatchDeviceAffinity allocates %v times per call, want 0", n)
	}
}

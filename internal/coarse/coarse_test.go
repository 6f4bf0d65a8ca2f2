package coarse

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

var t0 = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC) // Monday midnight

// cachedModel peeks at the model cache for a device without training.
// Entries orphaned by InvalidateAll (epoch bump) report as absent.
func (l *Localizer) cachedModel(d event.DeviceID) (*deviceModel, bool) {
	return l.models.Peek(d)
}

// testBuilding builds a 3-AP, 9-room building.
func testBuilding(t *testing.T) *space.Building {
	t.Helper()
	b, err := space.NewBuilding(space.Config{
		Name: "coarse-test",
		Rooms: []space.Room{
			{ID: "r1", Kind: space.Private}, {ID: "r2", Kind: space.Private},
			{ID: "r3", Kind: space.Public}, {ID: "r4", Kind: space.Private},
			{ID: "r5", Kind: space.Private}, {ID: "r6", Kind: space.Public},
			{ID: "r7", Kind: space.Private}, {ID: "r8", Kind: space.Private},
			{ID: "r9", Kind: space.Private},
		},
		AccessPoints: []space.AccessPoint{
			{ID: "apA", Coverage: []space.RoomID{"r1", "r2", "r3", "r4"}},
			{ID: "apB", Coverage: []space.RoomID{"r3", "r4", "r5", "r6"}},
			{ID: "apC", Coverage: []space.RoomID{"r6", "r7", "r8", "r9"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seedHistory ingests `days` workdays of a regular pattern for device d:
// events every 10 minutes on apA from 9:00 to 12:00, a 45-minute silent
// stretch inside (12:00–12:45 no events, still apA at 12:45–13:00), then
// nothing after 13:00 (outside).
func seedHistory(t *testing.T, st *store.Store, d event.DeviceID, days int) {
	t.Helper()
	var evs []event.Event
	for day := 0; day < days; day++ {
		base := t0.AddDate(0, 0, day)
		for m := 0; m <= 180; m += 10 { // 9:00–12:00
			evs = append(evs, event.Event{
				Device: d, Time: base.Add(9*time.Hour + time.Duration(m)*time.Minute), AP: "apA",
			})
		}
		// Short inside silence, then two more events; the 13:30→14:05
		// pair leaves a 15-minute gap (≤ τl), a bootstrap-inside example.
		evs = append(evs,
			event.Event{Device: d, Time: base.Add(12*time.Hour + 45*time.Minute), AP: "apA"},
			event.Event{Device: d, Time: base.Add(13 * time.Hour), AP: "apA"},
			event.Event{Device: d, Time: base.Add(13*time.Hour + 30*time.Minute), AP: "apA"},
			event.Event{Device: d, Time: base.Add(14*time.Hour + 5*time.Minute), AP: "apA"},
		)
	}
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	if err := st.SetDelta(d, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
}

func newLocalizer(t *testing.T, b *space.Building, st *store.Store) *Localizer {
	t.Helper()
	return New(b, st, Options{
		HistoryDays:           30,
		MaxPromotionsPerRound: 8,
	})
}

func TestLocateValidityHit(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	seedHistory(t, st, "dev", 10)
	l := newLocalizer(t, b, st)

	// 9:05 on day 9: inside apA's validity.
	res, err := l.Locate("dev", t0.AddDate(0, 0, 9).Add(9*time.Hour+5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outside || !res.FromValidity {
		t.Fatalf("expected validity hit, got %+v", res)
	}
	gA, _ := b.RegionOf("apA")
	if res.Region != gA {
		t.Errorf("region = %s, want %s", res.Region, gA)
	}
	if res.Confidence != 1 {
		t.Errorf("validity confidence = %v, want 1", res.Confidence)
	}
}

func TestLocateNoDataIsOutside(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	seedHistory(t, st, "dev", 10)
	l := newLocalizer(t, b, st)

	// 3:00 (night): after the previous day's last validity, before the next
	// day's first event — that is a long gap, bootstrap labels outside.
	res, err := l.Locate("dev", t0.AddDate(0, 0, 9).Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outside {
		t.Fatalf("night query should be outside, got %+v", res)
	}
	// Before any data at all: outside.
	res, err = l.Locate("dev", t0.Add(-24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outside {
		t.Fatalf("pre-history query should be outside, got %+v", res)
	}
}

func TestLocateShortGapBootstrapsInside(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	seedHistory(t, st, "dev", 10)
	l := newLocalizer(t, b, st)

	// 12:20 on day 9: inside the 12:10–12:35 gap (after 12:00+δ, before
	// 12:45−δ). Duration 25m is between τl=20m and τh=180m → classifier
	// decides; with start==end region the region heuristic gives apA.
	res, err := l.Locate("dev", t0.AddDate(0, 0, 9).Add(12*time.Hour+20*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap == nil {
		t.Fatalf("expected a gap repair, got %+v", res)
	}
	if res.Outside {
		t.Fatalf("25-minute mid-day gap should be inside, got outside")
	}
	gA, _ := b.RegionOf("apA")
	if res.Region != gA {
		t.Errorf("region = %s, want %s", res.Region, gA)
	}
}

func TestLocateTinyGapUsesBootstrapDirectly(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	d := event.DeviceID("dev2")
	// Two events 35 minutes apart with δ=10m: gap of 15m ≤ τl → inside.
	evs := []event.Event{
		{Device: d, Time: t0.Add(9 * time.Hour), AP: "apB"},
		{Device: d, Time: t0.Add(9*time.Hour + 35*time.Minute), AP: "apB"},
	}
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	st.SetDelta(d, 10*time.Minute)
	l := newLocalizer(t, b, st)

	res, err := l.Locate(d, t0.Add(9*time.Hour+17*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outside {
		t.Fatal("15-minute gap should bootstrap to inside")
	}
	gB, _ := b.RegionOf("apB")
	if res.Region != gB {
		t.Errorf("region = %s, want %s (start==end heuristic)", res.Region, gB)
	}
	if res.Confidence != 1 {
		t.Errorf("bootstrap answer confidence = %v, want 1", res.Confidence)
	}
}

func TestLocateLongGapBootstrapsOutside(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	d := event.DeviceID("dev3")
	evs := []event.Event{
		{Device: d, Time: t0.Add(9 * time.Hour), AP: "apA"},
		{Device: d, Time: t0.Add(15 * time.Hour), AP: "apA"},
	}
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	st.SetDelta(d, 10*time.Minute)
	l := newLocalizer(t, b, st)

	res, err := l.Locate(d, t0.Add(12*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outside {
		t.Fatalf("6-hour gap should bootstrap to outside, got %+v", res)
	}
}

func TestRegionHeuristicMostVisited(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	d := event.DeviceID("dev4")
	var evs []event.Event
	// History: many midday events on apB across days (most visited in the
	// window), then a day with a gap whose endpoints disagree (apA → apC).
	for day := 0; day < 5; day++ {
		base := t0.AddDate(0, 0, day)
		for m := 0; m < 60; m += 10 {
			evs = append(evs, event.Event{Device: d, Time: base.Add(11*time.Hour + time.Duration(m)*time.Minute), AP: "apB"})
		}
	}
	base := t0.AddDate(0, 0, 5)
	evs = append(evs,
		event.Event{Device: d, Time: base.Add(11 * time.Hour), AP: "apA"},
		event.Event{Device: d, Time: base.Add(11*time.Hour + 29*time.Minute), AP: "apC"},
	)
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	st.SetDelta(d, 5*time.Minute)
	l := newLocalizer(t, b, st)

	// Gap (11:05, 11:24), 19m ≤ τl → inside; start region ≠ end region →
	// most visited region in the 11:05–11:24 window is apB.
	res, err := l.Locate(d, base.Add(11*time.Hour+15*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outside {
		t.Fatal("short gap should be inside")
	}
	gB, _ := b.RegionOf("apB")
	if res.Region != gB {
		t.Errorf("region = %s, want most-visited %s", res.Region, gB)
	}
}

func TestModelCaching(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	seedHistory(t, st, "dev", 8)
	l := newLocalizer(t, b, st)

	tq := t0.AddDate(0, 0, 7).Add(12*time.Hour + 20*time.Minute)
	if _, err := l.Locate("dev", tq); err != nil {
		t.Fatal(err)
	}
	m1, ok := l.cachedModel("dev")
	if !ok {
		t.Fatal("model not cached after first query")
	}
	if _, err := l.Locate("dev", tq); err != nil {
		t.Fatal(err)
	}
	if m2, _ := l.cachedModel("dev"); m2 != m1 {
		t.Error("model retrained despite cache")
	}
	l.InvalidateDevice("dev")
	if _, ok := l.cachedModel("dev"); ok {
		t.Error("InvalidateDevice did not evict")
	}
	if _, err := l.Locate("dev", tq); err != nil {
		t.Fatal(err)
	}
	l.InvalidateAll()
	if _, ok := l.cachedModel("dev"); ok {
		t.Error("InvalidateAll left a servable model")
	}
}

func TestObserveIngestInvalidatesModels(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	seedHistory(t, st, "dev-model", 30)
	l := newLocalizer(t, b, st)
	// Train via a gap query, then ingest: the cached model must drop.
	if _, err := l.Locate("dev-model", t0.AddDate(0, 0, 29).Add(12*time.Hour+20*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.cachedModel("dev-model"); !ok {
		t.Fatal("model not cached after query")
	}
	evs := []event.Event{{Device: "dev-model", Time: t0.AddDate(0, 0, 30), AP: "apA"}}
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	l.ObserveIngest(evs)
	if _, ok := l.cachedModel("dev-model"); ok {
		t.Fatal("model survived ObserveIngest")
	}
	if ms := l.MaintenanceStats(); ms.Trains == 0 || ms.TrainNanos <= 0 {
		t.Fatalf("maintenance %+v, want training accounted", ms)
	}
}

// TestConcurrentModelCache drives Locate (lazy shard-locked training)
// against per-device and global invalidation from many goroutines across
// many devices — the sharded cache's contention surface (run under -race
// in CI).
func TestConcurrentModelCache(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	devices := []event.DeviceID{"dev0", "dev1", "dev2", "dev3", "dev4", "dev5"}
	for _, d := range devices {
		seedHistory(t, st, d, 8)
	}
	l := newLocalizer(t, b, st)

	tq := t0.AddDate(0, 0, 7).Add(12*time.Hour + 20*time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				d := devices[(i+w)%len(devices)]
				if _, err := l.Locate(d, tq); err != nil {
					t.Errorf("concurrent Locate(%s): %v", d, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			l.InvalidateDevice(devices[i%len(devices)])
			if i%10 == 9 {
				l.InvalidateAll()
			}
		}
	}()
	wg.Wait()

	// After the dust settles every device still answers.
	for _, d := range devices {
		if _, err := l.Locate(d, tq); err != nil {
			t.Fatalf("post-race Locate(%s): %v", d, err)
		}
	}
}

func TestEmptyStoreError(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	// One device with two far-apart events to produce a mid gap, but query
	// a *different* device that has no events at all: outside.
	l := newLocalizer(t, b, st)
	res, err := l.Locate("ghost", t0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outside {
		t.Error("device with no events should be outside")
	}
}

func TestFeatureVector(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	seedHistory(t, st, "dev", 5)
	l := newLocalizer(t, b, st)

	g := event.Gap{
		Device:    "dev",
		Start:     t0.Add(10 * time.Hour),
		End:       t0.Add(11 * time.Hour),
		PrevEvent: event.Event{Device: "dev", Time: t0.Add(9 * time.Hour), AP: "apA"},
		NextEvent: event.Event{Device: "dev", Time: t0.Add(12 * time.Hour), AP: "apB"},
	}
	f := l.featurize(g, l.windowCount("dev", g))
	v := f.Vector()
	if len(v) != NumFeatures {
		t.Fatalf("vector length = %d, want %d", len(v), NumFeatures)
	}
	if f.StartTime != 10*3600 || f.EndTime != 11*3600 {
		t.Errorf("times = %v %v", f.StartTime, f.EndTime)
	}
	if f.Duration != 3600 {
		t.Errorf("duration = %v", f.Duration)
	}
	if f.StartDay != float64(time.Monday) {
		t.Errorf("start day = %v", f.StartDay)
	}
	if f.StartRegion == f.EndRegion {
		t.Error("regions should differ (apA vs apB)")
	}
	if f.Density <= 0 {
		t.Error("density should be positive: history has events 10:00–11:00")
	}
}

func TestGapSpansDays(t *testing.T) {
	g := event.Gap{Start: t0.Add(23 * time.Hour), End: t0.Add(25 * time.Hour)}
	if !gapSpansDays(g) {
		t.Error("gap crossing midnight should span days")
	}
	g2 := event.Gap{Start: t0.Add(9 * time.Hour), End: t0.Add(10 * time.Hour)}
	if gapSpansDays(g2) {
		t.Error("same-day gap should not span days")
	}
}

func TestInDayWindowWrap(t *testing.T) {
	// Window 23:00 → 01:00 wraps midnight.
	if !inDayWindow(0, 23*3600, 1*3600) {
		t.Error("midnight should be inside the wrapped window")
	}
	if inDayWindow(12*3600, 23*3600, 1*3600) {
		t.Error("noon should be outside the wrapped window")
	}
	if !inDayWindow(12*3600, 9*3600, 17*3600) {
		t.Error("noon should be inside 9–17")
	}
}

// TestDaySecondsCountMatchesScan: training's binary-search ω count equals
// the inDayWindow scan for plain and midnight-wrapping windows, including
// events exactly on a window edge.
func TestDaySecondsCountMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hist := make([]event.Event, 500)
	recs := make([]event.Rec, len(hist))
	for i := range hist {
		hist[i] = event.Event{Time: t0.Add(time.Duration(rng.Intn(28*86400)) * time.Second)}
		recs[i] = event.Rec{Nanos: hist[i].Time.UnixNano()}
	}
	secs := newDaySeconds(recs)
	for i := 0; i < 2000; i++ {
		start := t0.Add(time.Duration(rng.Intn(86400)) * time.Second)
		g := event.Gap{Start: start, End: start.Add(time.Duration(rng.Intn(86400)) * time.Second)}
		switch i % 3 { // an edge exactly on an event's time of day
		case 0:
			g.Start = hist[rng.Intn(len(hist))].Time
		case 1:
			g.End = hist[rng.Intn(len(hist))].Time
		}
		want := 0
		for _, e := range hist {
			if inDayWindow(secondOfDay(e.Time), secondOfDay(g.Start), secondOfDay(g.End)) {
				want++
			}
		}
		if got := secs.count(g); got != want {
			t.Fatalf("window %s–%s: count %d, scan %d", g.Start.Format("15:04:05"), g.End.Format("15:04:05"), got, want)
		}
	}
}

func TestDefaultThresholds(t *testing.T) {
	th := DefaultThresholds()
	if th.TauLow != 20*time.Minute || th.TauHigh != 180*time.Minute {
		t.Errorf("inside/outside thresholds = %v", th)
	}
	if th.RegionTauLow != 20*time.Minute || th.RegionTauHigh != 40*time.Minute {
		t.Errorf("region thresholds = %v", th)
	}
}

func TestOpenGapRealtimeQueries(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	d := event.DeviceID("rt")
	st.SetDelta(d, 10*time.Minute)
	// Last event 15 minutes ago on apB: short open gap → still inside apB.
	now := t0.Add(10 * time.Hour)
	st.Ingest([]event.Event{
		{Device: d, Time: now.Add(-2 * time.Hour), AP: "apB"},
		{Device: d, Time: now.Add(-15 * time.Minute), AP: "apB"},
	})
	l := newLocalizer(t, b, st)

	res, err := l.Locate(d, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outside {
		t.Fatalf("15-minute-old last event should still be inside: %+v", res)
	}
	gB, _ := b.RegionOf("apB")
	if res.Region != gB {
		t.Errorf("open-gap region = %s, want %s", res.Region, gB)
	}
	// 6 hours after the last event: outside.
	res, err = l.Locate(d, now.Add(6*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outside {
		t.Fatalf("6-hour open gap should be outside: %+v", res)
	}
}

// TestModelCacheBounded: training more devices than the cache capacity must
// evict old models instead of growing without bound, and evicted devices
// stay answerable (they just retrain).
func TestModelCacheBounded(t *testing.T) {
	b := testBuilding(t)
	st := store.New(0)
	devices := make([]event.DeviceID, 8)
	for i := range devices {
		devices[i] = event.DeviceID(fmt.Sprintf("dev%d", i))
		seedHistory(t, st, devices[i], 8)
	}
	const capacity = 3
	l := New(b, st, Options{
		HistoryDays:           30,
		MaxPromotionsPerRound: 8,
		ModelCacheCapacity:    capacity,
	})

	tq := t0.AddDate(0, 0, 7).Add(12*time.Hour + 20*time.Minute)
	for _, d := range devices {
		if _, err := l.Locate(d, tq); err != nil {
			t.Fatal(err)
		}
		if st := l.ModelCacheStats(); st.Size > st.Capacity {
			t.Fatalf("model cache size %d exceeds capacity %d", st.Size, st.Capacity)
		}
	}
	stats := l.ModelCacheStats()
	if stats.Capacity != capacity {
		t.Errorf("capacity = %d, want %d", stats.Capacity, capacity)
	}
	if stats.Evictions == 0 {
		t.Error("no evictions after training past capacity")
	}
	// An evicted device still answers (retrained on demand).
	if _, err := l.Locate(devices[0], tq); err != nil {
		t.Fatalf("evicted device no longer answerable: %v", err)
	}
}

package locater_test

import (
	"fmt"
	"testing"
	"time"

	"locater"
	"locater/internal/eval"
	"locater/internal/sim"
	"locater/internal/space"
)

var simStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// buildDataset generates a small deterministic workload shared by the
// integration tests.
func buildDataset(t testing.TB, days int) *sim.Dataset {
	t.Helper()
	sc, err := sim.DBH(3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, days, 77))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newSystem(t testing.TB, ds *sim.Dataset, cfg locater.Config) *locater.System {
	t.Helper()
	cfg.Building = ds.Building
	cfg.HistoryDays = 14
	cfg.PromotionsPerRound = 8
	cfg.MaxTrainingGaps = 100
	sys, err := locater.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)
	return sys
}

func TestNewValidation(t *testing.T) {
	if _, err := locater.New(locater.Config{}); err == nil {
		t.Error("missing building should fail")
	}
	ds := buildDataset(t, 2)
	bad := locater.Config{
		Building: ds.Building,
		Weights:  locater.Weights{Preferred: 0.2, Public: 0.5, Private: 0.3},
	}
	if _, err := locater.New(bad); err == nil {
		t.Error("invalid weights should fail")
	}
}

func TestEndToEndQueries(t *testing.T) {
	ds := buildDataset(t, 14)
	sys := newSystem(t, ds, locater.Config{Variant: locater.DependentVariant, EnableCache: true})

	if sys.NumEvents() != len(ds.Events) {
		t.Errorf("ingested %d of %d events", sys.NumEvents(), len(ds.Events))
	}
	if sys.NumDevices() != len(ds.People) {
		t.Errorf("devices = %d, want %d", sys.NumDevices(), len(ds.People))
	}

	queries, err := eval.SampleQueries(ds, eval.WorkloadOptions{
		NumQueries: 60, Seed: 5,
		From: simStart.AddDate(0, 0, 10), To: simStart.AddDate(0, 0, 14),
		DaytimeOnly: true, InsideBias: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for _, q := range queries {
		res, err := sys.Locate(q.Device, q.Time)
		if err != nil {
			t.Fatalf("Locate(%s, %v): %v", q.Device, q.Time, err)
		}
		if !res.Outside {
			if res.Room == "" || res.Region == "" {
				t.Fatalf("inside answer missing room/region: %+v", res)
			}
			// Room must be a candidate of the region.
			found := false
			for _, r := range ds.Building.CandidateRooms(res.Region) {
				if r == res.Room {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("room %s not in region %s", res.Room, res.Region)
			}
			if res.RoomProbability < 0 || res.RoomProbability > 1 {
				t.Fatalf("room probability out of range: %v", res.RoomProbability)
			}
		}
		answered++
	}
	if sys.NumQueries() != answered {
		t.Errorf("NumQueries = %d, want %d", sys.NumQueries(), answered)
	}
}

func TestPrecisionBeatsRandomBaseline(t *testing.T) {
	ds := buildDataset(t, 14)
	sys := newSystem(t, ds, locater.Config{})
	queries, err := eval.SampleQueries(ds, eval.WorkloadOptions{
		NumQueries: 120, Seed: 6,
		From: simStart.AddDate(0, 0, 10), To: simStart.AddDate(0, 0, 14),
		DaytimeOnly: true, InsideBias: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := eval.SystemFunc(func(q eval.Query) (eval.Answer, error) {
		r, err := sys.Locate(q.Device, q.Time)
		if err != nil {
			return eval.Answer{}, err
		}
		return eval.Answer{Outside: r.Outside, Region: r.Region, Room: r.Room}, nil
	})
	p := eval.Score(ds.Building, wrapped, queries)
	if p.Errors > 0 {
		t.Fatalf("%d query errors", p.Errors)
	}
	// Uniform random room choice in an 11-room region yields ≈9% fine
	// precision; LOCATER must do far better.
	if p.Pf() < 0.3 {
		t.Errorf("fine precision %.2f suspiciously low", p.Pf())
	}
	if p.Pc() < 0.5 {
		t.Errorf("coarse precision %.2f suspiciously low", p.Pc())
	}
}

func TestLocateCoarse(t *testing.T) {
	ds := buildDataset(t, 7)
	sys := newSystem(t, ds, locater.Config{})
	// Night query: outside.
	outside, _, err := sys.LocateCoarse(ds.People[0].Device, simStart.AddDate(0, 0, 5).Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !outside {
		t.Error("3am should be outside")
	}
}

func TestCacheStats(t *testing.T) {
	ds := buildDataset(t, 7)
	noCache := newSystem(t, ds, locater.Config{})
	cs := noCache.CacheStats()
	if cs.Enabled || cs.GraphEdges != 0 || cs.Affinity != (locater.CacheTierStats{}) || cs.Results != (locater.CacheTierStats{}) {
		t.Errorf("no-cache stats = %+v", cs)
	}
	// The coarse model cache exists regardless of EnableCache.
	if cs.CoarseModels.Capacity == 0 {
		t.Error("coarse model cache reports no capacity")
	}
	cached := newSystem(t, ds, locater.Config{EnableCache: true, Variant: locater.DependentVariant})
	tq := simStart.AddDate(0, 0, 5).Add(11 * time.Hour)
	for _, p := range ds.People[:4] {
		if _, err := cached.Locate(p.Device, tq); err != nil {
			t.Fatal(err)
		}
	}
	cs = cached.CacheStats()
	if !cs.Enabled {
		t.Error("Enabled = false with EnableCache")
	}
	if cs.Affinity.Hits+cs.Affinity.Misses == 0 {
		t.Error("affinity cache never consulted during inside queries")
	}
	if cs.Results.Misses == 0 {
		t.Error("result cache never consulted")
	}
	for name, tier := range map[string]locater.CacheTierStats{
		"affinity": cs.Affinity, "coarse": cs.CoarseModels, "results": cs.Results,
	} {
		if tier.Size > tier.Capacity {
			t.Errorf("%s cache size %d exceeds capacity %d", name, tier.Size, tier.Capacity)
		}
	}
}

// TestResultCacheRepeatedQuery: with EnableCache a repeated (device, time)
// query is served from the result cache — and returns the identical answer.
func TestResultCacheRepeatedQuery(t *testing.T) {
	ds := buildDataset(t, 7)
	sys := newSystem(t, ds, locater.Config{EnableCache: true})
	dev := ds.People[0].Device
	tq := simStart.AddDate(0, 0, 5).Add(11 * time.Hour)

	first, err := sys.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sys.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("cached answer differs: %+v vs %+v", again, first)
	}
	if hits := sys.CacheStats().Results.Hits; hits == 0 {
		t.Error("repeat query did not hit the result cache")
	}
}

// TestLocateAfterIngestNotStale is the stale-affinity regression test: with
// every cache enabled, events ingested after a warm-up query must be
// reflected by the very next query — the cached result and cached pairwise
// affinities may not outlive the write.
//
// Construction: device "probe" has history only on apA. A query inside its
// silent stretch warms every cache (coarse model, affinities, result).
// Then a dense burst of post-warm-up events on apB, covering the original
// query time, is ingested: the same (device, time) query must now see a
// validity hit on apB's region — any other answer means some cache kept
// serving pre-ingest state.
func TestLocateAfterIngestNotStale(t *testing.T) {
	ds := buildDataset(t, 7)
	sys := newSystem(t, ds, locater.Config{
		EnableCache: true,
		Variant:     locater.DependentVariant,
	})
	b := ds.Building
	aps := b.AccessPoints()
	if len(aps) < 2 {
		t.Fatal("need two APs")
	}
	apA, apB := aps[0], aps[1]
	dev := locater.DeviceID("probe-dev")
	tq := simStart.AddDate(0, 0, 5).Add(11 * time.Hour)

	// History on apA with a gap around tq (events end an hour before).
	var hist []locater.Event
	for d := 0; d < 5; d++ {
		base := simStart.AddDate(0, 0, d)
		for m := 0; m < 120; m += 10 {
			hist = append(hist, locater.Event{Device: dev, Time: base.Add(9*time.Hour + time.Duration(m)*time.Minute), AP: apA})
		}
	}
	if err := sys.Ingest(hist); err != nil {
		t.Fatal(err)
	}

	// Warm every cache with the pre-ingest answer.
	warm, err := sys.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}

	// The write: the device shows up on apB right around tq.
	var burst []locater.Event
	for m := -30; m <= 30; m += 5 {
		burst = append(burst, locater.Event{Device: dev, Time: tq.Add(time.Duration(m) * time.Minute), AP: apB})
	}
	if err := sys.Ingest(burst); err != nil {
		t.Fatal(err)
	}

	// The very next query must see the new events: tq is now inside a
	// validity interval on apB, a non-repaired inside answer.
	got, err := sys.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}
	regionB, ok := b.RegionOf(apB)
	if !ok {
		t.Fatal("apB has no region")
	}
	if got.Outside || got.Region != regionB || got.Repaired {
		t.Errorf("post-ingest answer %+v does not reflect the ingested burst (want region %s validity hit; pre-ingest answer was %+v)",
			got, regionB, warm)
	}
}

// TestCachesBoundedUnderChurn replays a 24h churn workload — streaming
// ingest of ever-new devices interleaved with queries — and asserts every
// cache tier stays within its bound (the pre-fix affinity cache grew one
// entry per device pair per time bucket, forever). The per-tier tests in
// internal/cache, internal/affgraph and internal/coarse check the same
// bound at capacities the workload overflows.
func TestCachesBoundedUnderChurn(t *testing.T) {
	ds := buildDataset(t, 7)
	sys := newSystem(t, ds, locater.Config{EnableCache: true})
	aps := ds.Building.AccessPoints()
	day := simStart.AddDate(0, 0, 7)
	for hour := 0; hour < 24; hour++ {
		base := day.Add(time.Duration(hour) * time.Hour)
		dev := locater.DeviceID(fmt.Sprintf("churn-%d", hour))
		for m := 0; m < 60; m += 10 {
			if err := sys.IngestOne(locater.Event{Device: dev, Time: base.Add(time.Duration(m) * time.Minute), AP: aps[hour%len(aps)]}); err != nil {
				t.Fatal(err)
			}
		}
		// Queries for the churning device and a stable one.
		if _, err := sys.Locate(dev, base.Add(35*time.Minute)); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Locate(ds.People[0].Device, base.Add(40*time.Minute)); err != nil {
			t.Fatal(err)
		}
		cs := sys.CacheStats()
		for name, tier := range map[string]locater.CacheTierStats{
			"affinity": cs.Affinity, "coarse": cs.CoarseModels, "results": cs.Results,
		} {
			if tier.Size > tier.Capacity {
				t.Fatalf("hour %d: %s cache size %d exceeds capacity %d", hour, name, tier.Size, tier.Capacity)
			}
		}
	}
	cs := sys.CacheStats()
	if cs.Affinity.Invalidations == 0 || cs.Results.Invalidations == 0 {
		t.Errorf("churn produced no invalidations: %+v", cs)
	}
}

func TestStreamingIngest(t *testing.T) {
	ds := buildDataset(t, 7)
	cfg := locater.Config{Building: ds.Building, HistoryDays: 7, PromotionsPerRound: 8}
	sys, err := locater.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ds.Events[:500] {
		if err := sys.IngestOne(e); err != nil {
			t.Fatal(err)
		}
	}
	if sys.NumEvents() != 500 {
		t.Errorf("streamed %d events", sys.NumEvents())
	}
	// Queries still answerable mid-stream.
	if _, err := sys.Locate(ds.Events[0].Device, ds.Events[0].Time); err != nil {
		t.Fatal(err)
	}
}

func TestSetDeltaAndDefaults(t *testing.T) {
	ds := buildDataset(t, 2)
	sys, err := locater.New(locater.Config{Building: ds.Building})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetDelta(ds.People[0].Device, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetDelta(ds.People[0].Device, 0); err == nil {
		t.Error("zero delta should fail")
	}
	if got := locater.DefaultWeights(); got != (locater.Weights{Preferred: 0.6, Public: 0.3, Private: 0.1}) {
		t.Errorf("DefaultWeights = %+v", got)
	}
}

func TestVariantsAgreeOnStrongPrior(t *testing.T) {
	// For a device with no neighbors both variants must return the prior's
	// argmax (the preferred room), so they agree.
	ds := buildDataset(t, 7)
	i := newSystem(t, ds, locater.Config{Variant: locater.IndependentVariant})
	d := newSystem(t, ds, locater.Config{Variant: locater.DependentVariant})

	dev := ds.People[0].Device
	// Find a query time where the device is inside per the oracle.
	wins := ds.Truth.InsideWindows(dev, simStart.AddDate(0, 0, 5), simStart.AddDate(0, 0, 7))
	if len(wins) == 0 {
		t.Skip("no inside windows")
	}
	tq := wins[0].Start.Add(wins[0].End.Sub(wins[0].Start) / 2)
	ri, err := i.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := d.Locate(dev, tq)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Outside != rd.Outside {
		t.Errorf("variants disagree on outside: %v vs %v", ri.Outside, rd.Outside)
	}
	if !ri.Outside && ri.Region != rd.Region {
		t.Errorf("variants disagree on region: %v vs %v", ri.Region, rd.Region)
	}
}

// TestHistoryDaysBoundsAffinity checks that HistoryDays is the one history
// window N: device affinity reads the same N days as coarse training. At
// t_q the candidate c is online at wap4, whose region overlaps d's region
// at wap3, but the two share no AP there; their only co-location is 20
// days earlier. Under a 7-day N that co-location is out of reach, so
// α({d, c}) = 0 and c is not a neighbor. The default N (0 selects 56)
// sees it.
func TestHistoryDaysBoundsAffinity(t *testing.T) {
	b, err := space.NewBuilding(space.Config{
		Name: "history",
		Rooms: []space.Room{
			{ID: "2059", Kind: space.Private},
			{ID: "2061", Kind: space.Private},
			{ID: "2065", Kind: space.Public},
			{ID: "2068", Kind: space.Private},
		},
		AccessPoints: []space.AccessPoint{
			{ID: "wap3", Coverage: []space.RoomID{"2059", "2061", "2065"}},
			{ID: "wap4", Coverage: []space.RoomID{"2065", "2068"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tq := simStart.Add(30*24*time.Hour + 11*time.Hour)
	past := tq.Add(-20 * 24 * time.Hour)
	events := []locater.Event{
		{Device: "d", Time: past, AP: "wap3"},
		{Device: "c", Time: past, AP: "wap3"},
		{Device: "d", Time: tq, AP: "wap3"},
		{Device: "c", Time: tq, AP: "wap4"},
	}
	locate := func(days int) locater.Result {
		t.Helper()
		sys, err := locater.New(locater.Config{Building: b, HistoryDays: days})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Ingest(events); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Locate("d", tq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outside {
			t.Fatalf("HistoryDays %d: d answered outside at an event", days)
		}
		return res
	}
	if res := locate(7); res.TotalNeighbors != 0 {
		t.Errorf("HistoryDays 7: %d neighbors, want 0 (the only co-location is 20 days old)", res.TotalNeighbors)
	}
	def, full := locate(0), locate(56)
	if def != full {
		t.Errorf("HistoryDays 0 answered %+v, HistoryDays 56 %+v", def, full)
	}
	if full.TotalNeighbors != 1 {
		t.Errorf("HistoryDays 56: %d neighbors, want 1", full.TotalNeighbors)
	}
}
